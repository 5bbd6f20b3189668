"""Differential oracles over a :class:`~repro.check.fuzz.FuzzCase`.

Each oracle returns a list of failure strings prefixed with its name.
A case passes when every oracle returns no failures. The matrix:

=============  ========================================================
oracle         cross-checks
=============  ========================================================
``encoders``   pcce vs deltapath vs anchored against the exhaustive
               context enumeration (uniqueness, round trip, bounds);
               ICC == NC on virtual-free graphs
``incremental``  chained ``plan.apply_delta`` vs a cold
               ``build_plan_from_graph`` on the same final graph:
               graph identity, decode-equivalence, SID partition
``sids``       chained ``update_sids`` vs one-shot ``compute_sids``:
               partition bijection, site consistency, ``num_sets``
``runtime``    DeltaPathProbe (wrapped in the invariant-checking
               probe) vs a stack-walk shadow on random graph walks,
               with detours through uninstrumented code (hazardous
               UCPs, decoded as gaps) and optional mid-walk hot swaps
               on additive deltas
``service``    ingestion-queue overflow during hot swap: accounting
               conservation and epoch-correct decoding
``batch``      ``submit_batch`` ingestion with hot swaps landing
               mid-batch vs the random walk's own node paths: top-K,
               inclusive and leaf rollups, UCP stats, lossless
               accounting
``conservation``  ingestion under injected chaos (worker kills, decode
               storms) with supervision armed: the conservation law
               ``submitted == aggregated + dead_lettered + mismatches +
               dropped + fallback`` and a truthful ``stop()``
``multiproc``  the same conservation law with the decode fleet running
               as real worker *processes* over shared-memory lanes,
               one of them SIGKILLed mid-stream (sampled: process
               spawn is expensive, so one case in sixteen runs it)
``recovery``   checkpoint → crash → recover: recovery replays exactly
               the newest valid snapshot (torn/corrupt files rejected),
               a subset of the pre-crash tree, no phantom contexts
``compaction``  segment generation swaps on a store built from the
               case graph: a clean swap moves no byte of any query
               answer, a swap crashed at a seed-sampled record
               recovers to old-or-new (never a mix), and retention
               keeps ``live + retired == flushed``
=============  ========================================================

Outcomes the system *documents* as legitimate are skips, not failures:
``EncodingOverflowError`` (the width genuinely cannot encode the
graph), and ``PlanSwapError`` during a mid-walk hot swap (live state
not representable under the repaired encoding).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.incremental import apply_delta, diff_graphs
from repro.check.fuzz import FuzzCase
from repro.check.invariants import (
    CheckedProbe,
    batch_equivalence_scenario,
    checkpoint_recovery_scenario,
    multiprocess_conservation_scenario,
    resilient_fault_scenario,
    service_fault_scenario,
)
from repro.core.deltapath import encode_deltapath
from repro.core.pcce import encode_pcce
from repro.core.sid import SidTable, compute_sids, update_sids
from repro.core.verify import verify_encoding
from repro.errors import (
    ChaosError,
    EncodingOverflowError,
    PlanSwapError,
    ReproError,
)
from repro.graph.callgraph import CallGraph
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import (
    DeltaPathPlan,
    PlanUpdate,
    build_plan_from_graph,
)

__all__ = [
    "check_case",
    "check_encoders",
    "check_incremental",
    "check_sids",
    "check_runtime",
    "check_service",
    "check_batch",
    "check_conservation",
    "check_multiproc",
    "check_recovery",
    "check_compaction",
    "sid_equivalence_failures",
    "canonical_query_answers",
    "query_equivalence_failures",
    "ORACLES",
]


# ----------------------------------------------------------------------
# Encoder differential oracle
# ----------------------------------------------------------------------
def check_encoders(case: FuzzCase, limit_per_node: int = 30) -> List[str]:
    """All encoders against the exhaustive enumeration, pre and post
    delta; Algorithm 1's ICC must equal PCCE's NC on virtual-free
    graphs (paper Section 3.1)."""
    failures: List[str] = []
    graphs = [case.graph]
    if case.deltas:
        graphs.append(case.final_graph())
    for which, graph in zip(("initial", "final"), graphs):
        failures.extend(_check_encoders_on(graph, which, case, limit_per_node))
    return failures


def _check_encoders_on(
    graph: CallGraph, which: str, case: FuzzCase, limit_per_node: int
) -> List[str]:
    failures: List[str] = []
    pcce = encode_pcce(graph)
    deltapath = encode_deltapath(graph)
    for name, encoding in (("pcce", pcce), ("deltapath", deltapath)):
        report = verify_encoding(encoding, limit_per_node=limit_per_node)
        failures.extend(
            f"encoders: {name} on {which} graph: {f}" for f in report.failures
        )
    if not deltapath.graph.virtual_sites:
        for node in deltapath.graph.nodes:
            icc = deltapath.icc.get(node, 1)
            nc = pcce.nc.get(node, 0)
            if node != graph.entry and icc != nc and (icc or nc):
                failures.append(
                    f"encoders: ICC[{node}]={icc} != NC[{node}]={nc} on a "
                    f"virtual-free {which} graph"
                )
    try:
        anchored = _encode_anchored(graph, case)
    except EncodingOverflowError:
        return failures  # documented: width genuinely too small
    report = verify_encoding(anchored, limit_per_node=limit_per_node)
    failures.extend(
        f"encoders: anchored on {which} graph: {f}" for f in report.failures
    )
    return failures


def _encode_anchored(graph: CallGraph, case: FuzzCase):
    from repro.core.anchored import encode_anchored

    return encode_anchored(graph, width=case.width)


# ----------------------------------------------------------------------
# Incremental-vs-cold oracle
# ----------------------------------------------------------------------
def check_incremental(
    case: FuzzCase, limit_per_node: int = 30
) -> List[str]:
    """Chained ``apply_delta`` must stay decode-equivalent to a cold
    rebuild of the final graph (the PR 1 contract)."""
    if not case.deltas:
        return []
    failures: List[str] = []
    try:
        plan = build_plan_from_graph(case.graph, width=case.width)
    except EncodingOverflowError:
        return []
    current = plan
    graph = case.graph
    for index, delta in enumerate(case.deltas):
        try:
            update = current.apply_delta(delta)
        except EncodingOverflowError:
            return failures  # repaired graph outgrew the width: legitimate
        except ReproError as exc:
            # The generator guarantees delta validity, so any rejection
            # or crash here is a repair bug (e.g. a stale site table).
            failures.append(
                f"incremental: delta {index} ({delta.summary()}) crashed "
                f"apply_delta: {type(exc).__name__}: {exc}"
            )
            return failures
        current = update.plan
        graph = apply_delta(graph, delta)

    # 1. Graph identity: the incrementally maintained graph must be the
    #    independently applied one.
    drift = diff_graphs(current.graph, graph)
    if not drift.is_empty:
        failures.append(
            f"incremental: repaired plan's graph drifted from the applied "
            f"deltas by {drift.summary()}"
        )

    # 2. Decode equivalence: the repaired encoding must round-trip every
    #    enumerable context of the final graph (the cold rebuild's own
    #    correctness is the encoder oracle's job).
    report = verify_encoding(current.encoding, limit_per_node=limit_per_node)
    failures.extend(
        f"incremental: repaired encoding: {f}" for f in report.failures
    )

    # 3. SIDs: same partition as a cold compute_sids.
    try:
        cold = build_plan_from_graph(graph, width=case.width)
    except EncodingOverflowError:
        return failures
    failures.extend(
        f"incremental: {f}"
        for f in sid_equivalence_failures(current.sids, cold.sids, graph)
    )
    return failures


# ----------------------------------------------------------------------
# SID oracle
# ----------------------------------------------------------------------
def check_sids(case: FuzzCase) -> List[str]:
    """Chained ``update_sids`` vs one-shot ``compute_sids``."""
    if not case.deltas:
        return []
    graph = case.graph
    sids = compute_sids(graph)
    for delta in case.deltas:
        graph = apply_delta(graph, delta)
        sids = update_sids(sids, graph, delta)
    fresh = compute_sids(graph)
    return [
        f"sids: {f}" for f in sid_equivalence_failures(sids, fresh, graph)
    ]


def sid_equivalence_failures(
    updated: SidTable, reference: SidTable, graph: CallGraph
) -> List[str]:
    """Partition-equivalence between two SID tables over ``graph``.

    SID *numbers* may differ (update keeps old numbers stable where
    possible); what must agree is the partition: the mapping between the
    two tables' SIDs over the graph's nodes must be a bijection. A
    collision — two reference classes sharing one updated SID — is the
    exact bug class ``update_sids`` fresh numbering can introduce.
    """
    failures: List[str] = []
    missing = [n for n in graph.nodes if n not in updated.sid_of_node]
    if missing:
        failures.append(f"nodes missing SIDs: {sorted(missing)[:5]}")
        return failures

    forward: Dict[int, int] = {}
    backward: Dict[int, int] = {}
    for node in graph.nodes:
        a = updated.sid_of_node[node]
        b = reference.sid_of_node[node]
        if forward.setdefault(a, b) != b:
            failures.append(
                f"SID collision: updated SID {a} covers reference classes "
                f"{forward[a]} and {b} (e.g. at {node!r})"
            )
        if backward.setdefault(b, a) != a:
            failures.append(
                f"SID split: reference class {b} maps to updated SIDs "
                f"{backward[b]} and {a} (e.g. at {node!r})"
            )
        if failures:
            return failures

    if updated.num_sets != reference.num_sets:
        failures.append(
            f"num_sets disagree: updated {updated.num_sets} vs reference "
            f"{reference.num_sets}"
        )
    for site in graph.call_sites:
        target = graph.site_targets(site)[0].callee
        expected = updated.sid_of_node[target]
        got = updated.sid_of_site.get(site)
        if got != expected:
            failures.append(
                f"site {site} stores SID {got} but its targets carry "
                f"{expected}"
            )
            break
    return failures


# ----------------------------------------------------------------------
# Runtime oracle: probe vs stack-walk shadow
# ----------------------------------------------------------------------
def check_runtime(
    case: FuzzCase,
    walks: int = 4,
    max_depth: int = 10,
    snapshots_per_walk: int = 6,
) -> List[str]:
    """Drive the DeltaPath agent through seeded random walks of the
    graph, decoding snapshots against the walk's own edge history (the
    stack-walk ground truth), with every probe operation swept by the
    invariant checker. Some calls detour through an uninstrumented
    function, so UCP entries are pushed, popped and decoded as gaps.
    Additive delta streams additionally exercise a mid-walk
    ``hot_swap`` at a snapshot-safe point."""
    failures: List[str] = []
    try:
        plan = build_plan_from_graph(case.graph, width=case.width)
    except EncodingOverflowError:
        return []
    rng = random.Random(case.seed ^ 0x5EED)

    all_additive = bool(case.deltas) and all(
        d.is_additive for d in case.deltas
    )
    updates: List[PlanUpdate] = []
    if all_additive:
        current = plan
        try:
            for delta in case.deltas:
                update = current.apply_delta(delta)
                updates.append(update)
                current = update.plan
        except ReproError:
            updates = []  # the incremental oracle reports repair crashes

    for walk in range(walks):
        swap_queue = list(updates) if walk == walks - 1 else []
        failures.extend(
            _run_walk(
                plan,
                rng,
                max_depth=max_depth,
                snapshots=snapshots_per_walk,
                swap_queue=swap_queue,
            )
        )
        if failures:
            break
    return [f"runtime: {f}" for f in failures]


#: A function no plan encodes, standing in for a dynamically loaded class.
_DETOUR = "<uninstrumented>"
#: Chance that a walk step calls through :data:`_DETOUR`.
_DETOUR_P = 0.15


def _run_walk(
    plan: DeltaPathPlan,
    rng: random.Random,
    max_depth: int,
    snapshots: int,
    swap_queue: List[PlanUpdate],
) -> List[str]:
    failures: List[str] = []
    probe = CheckedProbe(DeltaPathProbe(plan, cpt=True))
    graph = plan.graph
    entry = graph.entry
    shadow: List[str] = []  # node path, root-first (ground truth)
    taken = {"n": 0}

    def maybe_snapshot(node: str) -> None:
        if taken["n"] >= snapshots or rng.random() >= 0.5:
            return
        taken["n"] += 1
        snap = probe.snapshot(node)
        active_plan = probe.plan
        try:
            decoded = active_plan.decode_snapshot(node, snap)
        except ReproError as exc:
            failures.append(
                f"snapshot at {node!r} with shadow {shadow!r} failed to "
                f"decode: {type(exc).__name__}: {exc}"
            )
            return
        got = decoded.nodes(gap_marker="<?>")
        if got != shadow:
            failures.append(
                f"decode mismatch at {node!r}: probe says {got}, the "
                f"stack walk says {shadow}"
            )
        if swap_queue:
            update = swap_queue.pop(0)
            if update.old_plan is probe.plan:
                try:
                    probe.hot_swap(update, at_node=node)
                except PlanSwapError:
                    pass  # documented: retry later / restart

    def detour(node: str, depth: int) -> None:
        """``node`` calls an encoded function through uninstrumented
        code: a hazardous UCP, which decodes as a gap. Targets whose SID
        matches the stale expected-SID register are skipped — that miss
        is inherent to the mechanism (see the agent's module docs)."""
        expected = probe.inner._expected_sid
        info = probe.plan.node_info
        targets = [
            n for n in graph.nodes if n in info and info[n][0] != expected
        ]
        if not targets:
            return
        target = targets[rng.randrange(len(targets))]
        probe.before_call(node, _DETOUR, _DETOUR)
        probe.enter_function(_DETOUR)
        probe.before_call(_DETOUR, _DETOUR, target)
        probe.enter_function(target)
        shadow.extend(("<?>", target))
        walk(target, depth + 1)
        del shadow[-2:]
        probe.exit_function(target)
        probe.after_call(_DETOUR, _DETOUR, target)
        probe.exit_function(_DETOUR)
        probe.after_call(node, _DETOUR, _DETOUR)

    def walk(node: str, depth: int) -> None:
        maybe_snapshot(node)
        if failures or depth >= max_depth:
            return
        out = graph.out_edges(node)
        if not out:
            return
        for _ in range(rng.randint(0, min(2, len(out)))):
            if rng.random() < _DETOUR_P:
                detour(node, depth)
                if failures:
                    return
                continue
            edge = out[rng.randrange(len(out))]
            probe.before_call(edge.caller, edge.label, edge.callee)
            probe.enter_function(edge.callee)
            shadow.append(edge.callee)
            walk(edge.callee, depth + 1)
            shadow.pop()
            probe.exit_function(edge.callee)
            probe.after_call(edge.caller, edge.label, edge.callee)
            if failures:
                return

    probe.begin_execution(entry)
    probe.enter_function(entry)
    shadow.append(entry)
    walk(entry, 1)
    shadow.pop()
    probe.exit_function(entry)
    probe.end_execution()
    failures.extend(
        f"invariant violated: {v}" for v in probe.violations[:5]
    )
    return failures


# ----------------------------------------------------------------------
# Service oracle
# ----------------------------------------------------------------------
def _swap_workload(
    case: FuzzCase, salt: int, observations: int, paths: Optional[list] = None
):
    """``(plan, updates, pre-swap, post-swap observations)``, or None
    when the width cannot encode the graph."""
    try:
        plan = build_plan_from_graph(case.graph, width=case.width)
    except EncodingOverflowError:
        return None
    rng = random.Random(case.seed ^ salt)

    updates: List[PlanUpdate] = []
    current = plan
    try:
        for delta in case.deltas:
            update = current.apply_delta(delta)
            updates.append(update)
            current = update.plan
    except ReproError:
        updates = []  # the incremental oracle reports repair crashes
        current = plan

    pre = _collect_observations(plan, rng, observations, paths)
    post = (
        _collect_observations(current, rng, observations // 2, paths)
        if updates
        else []
    )
    return plan, updates, pre, post


def check_service(case: FuzzCase, observations: int = 24) -> List[str]:
    """Queue-overflow + hot-swap fault injection (see
    :func:`repro.check.invariants.service_fault_scenario`)."""
    workload = _swap_workload(case, 0xFA17, observations)
    if workload is None:
        return []
    plan, updates, pre, post = workload
    failures = service_fault_scenario(
        plan, pre, updates=updates, post_swap=post, seed=case.seed
    )
    return [f"service: {f}" for f in failures]


def check_batch(case: FuzzCase, observations: int = 24) -> List[str]:
    """``submit_batch`` ingestion, hot swaps landing mid-batch, against
    the paths the random walks took (see
    :func:`repro.check.invariants.batch_equivalence_scenario`)."""
    paths: List[Tuple[str, ...]] = []
    workload = _swap_workload(case, 0xBA7C, observations, paths)
    if workload is None:
        return []
    plan, updates, pre, post = workload
    failures = batch_equivalence_scenario(
        plan, pre, updates=updates, post_swap=post, seed=case.seed,
        paths=paths,
    )
    return [f"batch: {f}" for f in failures]


def _collect_observations(
    plan: DeltaPathPlan,
    rng: random.Random,
    count: int,
    paths: Optional[List[Tuple[str, ...]]] = None,
) -> List[Tuple[str, tuple]]:
    """Random-walk the plan's graph, snapshotting as we go.

    With ``paths``, each snapshot's ground truth is appended to it: the
    walk's node path at that moment (its shadow stack, root first).
    """
    probe = DeltaPathProbe(plan, cpt=True)
    graph = plan.graph
    out: List[Tuple[str, tuple]] = []
    shadow: List[str] = []

    def walk(node: str, depth: int) -> None:
        if len(out) < count and rng.random() < 0.6:
            out.append((node, probe.snapshot(node)))
            if paths is not None:
                paths.append(tuple(shadow))
        if depth >= 8 or len(out) >= count:
            return
        edges = graph.out_edges(node)
        if not edges:
            return
        for _ in range(rng.randint(0, min(2, len(edges)))):
            edge = edges[rng.randrange(len(edges))]
            probe.before_call(edge.caller, edge.label, edge.callee)
            probe.enter_function(edge.callee)
            shadow.append(edge.callee)
            walk(edge.callee, depth + 1)
            shadow.pop()
            probe.exit_function(edge.callee)
            probe.after_call(edge.caller, edge.label, edge.callee)

    attempts = 0
    while len(out) < count and attempts < 6:
        attempts += 1
        probe.begin_execution(graph.entry)
        probe.enter_function(graph.entry)
        shadow.append(graph.entry)
        walk(graph.entry, 1)
        shadow.pop()
        probe.exit_function(graph.entry)
        probe.end_execution()
    return out


# ----------------------------------------------------------------------
# Resilience oracles (PR 5)
# ----------------------------------------------------------------------
def check_conservation(case: FuzzCase, observations: int = 24) -> List[str]:
    """Chaos ingestion with supervision armed (see
    :func:`repro.check.invariants.resilient_fault_scenario`)."""
    try:
        plan = build_plan_from_graph(case.graph, width=case.width)
    except EncodingOverflowError:
        return []
    rng = random.Random(case.seed ^ 0xC0A5)
    obs_pairs = _collect_observations(plan, rng, observations)
    failures = resilient_fault_scenario(plan, obs_pairs, seed=case.seed)
    return [f"conservation: {f}" for f in failures]


#: One fuzz case in this many runs the multiprocess oracle — spawning a
#: process fleet per case would dominate check-smoke's budget, and the
#: sampling stays deterministic per seed so failures always reproduce.
MULTIPROC_SAMPLE_EVERY = 16


def check_multiproc(case: FuzzCase, observations: int = 12) -> List[str]:
    """Process-fleet conservation under seeded worker SIGKILLs (see
    :func:`repro.check.invariants.multiprocess_conservation_scenario`)."""
    if case.seed % MULTIPROC_SAMPLE_EVERY:
        return []
    try:
        plan = build_plan_from_graph(case.graph, width=case.width)
    except EncodingOverflowError:
        return []
    rng = random.Random(case.seed ^ 0x3C0B)
    obs_pairs = _collect_observations(plan, rng, observations)
    if not obs_pairs:
        return []
    failures = multiprocess_conservation_scenario(
        plan, obs_pairs, seed=case.seed
    )
    return [f"multiproc: {f}" for f in failures]


def check_recovery(case: FuzzCase, observations: int = 24) -> List[str]:
    """Checkpoint/crash/recover equivalence (see
    :func:`repro.check.invariants.checkpoint_recovery_scenario`)."""
    try:
        plan = build_plan_from_graph(case.graph, width=case.width)
    except EncodingOverflowError:
        return []
    rng = random.Random(case.seed ^ 0x4EC0)
    obs_pairs = _collect_observations(plan, rng, observations)
    failures = checkpoint_recovery_scenario(plan, obs_pairs, seed=case.seed)
    return [f"recovery: {f}" for f in failures]


# ----------------------------------------------------------------------
# Compaction oracle (repro.query.compact)
# ----------------------------------------------------------------------
def _graph_paths(graph: CallGraph, limit: int = 48) -> List[Tuple[str, ...]]:
    """Deterministic bounded-depth call paths from the case graph."""
    paths: List[Tuple[str, ...]] = []

    def walk(node: str, path: List[str], depth: int) -> None:
        if len(paths) >= limit:
            return
        paths.append(tuple(path))
        if depth >= 4:
            return
        for edge in graph.out_edges(node):
            walk(edge.callee, path + [edge.callee], depth + 1)
            if len(paths) >= limit:
                return

    walk(graph.entry, [graph.entry], 1)
    return paths


def check_compaction(case: FuzzCase, observations: int = 24) -> List[str]:
    """Generation-swap oracle over a store built straight from the case
    graph (no service threads): a compacted segment of the first two
    flushes beside the later deltas.

    Three directories, one invariant each:

    * **equivalence** — a clean forced compaction (no retention) must
      not move a byte of any canonical query answer, and must actually
      shrink a multi-segment store to one file;
    * **atomicity** — a tiered call (not forced, under a byte cap that
      retires nothing: it merges the young deltas beside the compacted
      segment) crashed at a seed-sampled durable record, then recovered
      by a fresh compactor, must answer exactly like the old generation
      or the new one, never a mix;
    * **conservation** — a tiered age-based retention sweep (it trims
      the compacted segment's oldest span and merges the deltas) must
      keep ``live samples + retired totals == samples ever flushed``,
      and the answers over the retained window must be byte-identical
      to the pre-retention store over that same window.
    """
    from repro.query.compact import (
        CompactionPolicy,
        Compactor,
        RetentionPolicy,
    )
    from repro.query.engine import QueryEngine
    from repro.query.manifest import SegmentStore
    from repro.query.writer import SegmentWriter
    from repro.service.shards import ShardedContextTree

    paths = _graph_paths(case.graph)
    if len(paths) < 2:
        return []
    failures: List[str] = []

    def build(directory: str) -> float:
        """Identical store every call: a flush per slice of the paths
        over 10s windows, the first two merged by a forced swap."""
        tree = ShardedContextTree(2)
        clock = [100.0]
        writer = SegmentWriter(
            tree, directory, fingerprint="oracle", clock=lambda: clock[0]
        )
        rng = random.Random(case.seed ^ 0x0C7A)
        quarter = max(1, len(paths) // 4)
        for flush, lo in enumerate(range(0, len(paths), quarter)):
            for path in paths[lo : lo + quarter]:
                tree.add(path, epoch=0, weight=rng.randint(1, 9))
            clock[0] += 10.0
            writer.flush()
            if flush == 1:
                Compactor(writer.store).compact(now=clock[0], force=True)
        return clock[0]

    young = CompactionPolicy(
        min_inputs=2, retention=RetentionPolicy(max_bytes=1 << 40)
    )

    with tempfile.TemporaryDirectory(prefix="repro-oracle-compact-") as tmp:
        # 1. equivalence -----------------------------------------------
        plain = os.path.join(tmp, "plain")
        now = build(plain)
        pre = canonical_query_answers(QueryEngine(plain).refresh())
        store = SegmentStore(plain)
        n_before = len(store.refresh())
        Compactor(store).compact(now=now, force=True)
        n_after = len(store.refresh())
        post = canonical_query_answers(QueryEngine(plain).refresh())
        failures.extend(
            f"compaction: clean swap moved answers: {f}"
            for f in query_equivalence_failures(pre, post)
        )
        if n_before > 1 and n_after != 1:
            failures.append(
                f"compaction: swap left {n_after} segments "
                f"(expected 1 from {n_before})"
            )

        # 2. atomicity under a mid-swap crash --------------------------
        torn = os.path.join(tmp, "torn")
        build(torn)
        crash_after = case.seed % 6

        def hook(records: int) -> None:
            if records > crash_after:
                raise ChaosError(
                    f"oracle: compaction crash after {records} record(s)"
                )

        try:
            Compactor(SegmentStore(torn), young).compact(now=now, fault=hook)
        except ChaosError:
            pass
        Compactor(SegmentStore(torn)).recover(now=now)
        recovered = canonical_query_answers(QueryEngine(torn).refresh())
        failures.extend(
            f"compaction: crashed swap (record {crash_after}) not "
            f"atomic: {f}"
            for f in query_equivalence_failures(pre, recovered)
        )

        # 3. retention conservation ------------------------------------
        aged = os.path.join(tmp, "aged")
        build(aged)
        aged_store = SegmentStore(aged)
        live_segs = aged_store.refresh()
        total = sum(seg.samples for seg in live_segs)
        oldest_hi = min(hi for seg in live_segs for _lo, hi in seg.spans)
        cutoff = oldest_hi + 5.0  # mid-window: drops exactly the oldest
        window = (cutoff, now + 1.0)
        pre_topk = QueryEngine(aged).refresh().top_contexts(10, window=window)
        Compactor(
            aged_store,
            CompactionPolicy(
                min_inputs=2,
                retention=RetentionPolicy(max_age_s=now - cutoff),
            ),
        ).compact(now=now)
        aged_store.refresh()
        live = sum(seg.samples for seg in aged_store.segments())
        retired = sum(
            count for count, _gaps in aged_store.retired_totals().values()
        )
        if live + retired != total:
            failures.append(
                f"compaction: retention leak — live {live} + retired "
                f"{retired} != flushed {total}"
            )
        if retired == 0 and len(live_segs) > 1:
            failures.append(
                "compaction: retention dropped nothing (oldest span "
                "should have aged out)"
            )
        post_topk = QueryEngine(aged).refresh().top_contexts(10, window=window)
        if pre_topk != post_topk:
            failures.append(
                "compaction: retained-window top-K changed across a "
                "retention sweep"
            )
    return failures


# ----------------------------------------------------------------------
# Durable-query equivalence oracle (repro.query)
# ----------------------------------------------------------------------
def canonical_query_answers(engine) -> bytes:
    """One deterministic byte string covering the durable query surface.

    ``engine`` is a :class:`repro.query.engine.QueryEngine`. The answer
    set spans every query family (top-K, inclusive and leaf rollups,
    window diff across the store's midpoint, UCP stats, flame graph) so
    the chaos harness can assert that a crash + recovery changes *none*
    of them: segments are immutable files, so answers computed before
    the crash must be byte-identical after it.
    """
    span = engine.span()
    answers: dict = {"span": list(span) if span else None}
    answers["topk"] = [
        [count, list(path)] for count, path in engine.top_contexts(10)
    ]
    answers["rollup"] = engine.function_totals()
    answers["leaf_rollup"] = engine.function_totals(leaf_only=True)
    answers["ucp"] = engine.ucp_stats()
    answers["flame"] = engine.flamegraph()
    if span is not None:
        lo, hi = span
        mid = (lo + hi) / 2.0
        # hi + epsilon-free: the span is half-open per segment but the
        # newest segment's t_hi is exclusive only for *later* samples;
        # widen the right edge so the whole store is covered.
        answers["topk_first_half"] = [
            [count, list(path)]
            for count, path in engine.top_contexts(10, window=(lo, mid))
        ]
        answers["diff_halves"] = engine.diff(
            (lo, mid), (mid, hi + 1.0)
        ).to_json()
    return json.dumps(answers, sort_keys=True).encode("utf-8")


def query_equivalence_failures(pre: bytes, post: bytes) -> List[str]:
    """Byte-compare two :func:`canonical_query_answers` outputs."""
    if pre == post:
        return []
    pre_obj = json.loads(pre.decode("utf-8"))
    post_obj = json.loads(post.decode("utf-8"))
    diverged = sorted(
        key
        for key in set(pre_obj) | set(post_obj)
        if pre_obj.get(key) != post_obj.get(key)
    )
    return [
        "query answers diverged across crash/recovery in: "
        + ", ".join(diverged)
    ]


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
ORACLES: Sequence[Tuple[str, Callable[..., List[str]]]] = (
    ("encoders", check_encoders),
    ("incremental", check_incremental),
    ("sids", check_sids),
    ("runtime", check_runtime),
    ("service", check_service),
    ("batch", check_batch),
    ("conservation", check_conservation),
    ("multiproc", check_multiproc),
    ("recovery", check_recovery),
    ("compaction", check_compaction),
)

#: Oracles that spin up worker threads (or processes);
#: ``with_service=False`` skips them.
_SERVICE_ORACLES = frozenset(
    {"service", "batch", "conservation", "multiproc", "recovery"}
)


def check_case(
    case: FuzzCase,
    limit_per_node: int = 30,
    with_service: bool = True,
    oracles: Optional[Sequence[str]] = None,
) -> List[str]:
    """Run the oracle matrix over one case; returns all failures.

    ``oracles`` restricts the run to a subset by name (the shrinker uses
    this to stay locked on the oracle that originally failed).
    ``with_service=False`` skips the thread-spawning oracles (service,
    conservation, recovery) — the right trade during shrinking's many
    predicate evaluations.
    """
    failures: List[str] = []
    selected = set(oracles) if oracles is not None else None
    for name, oracle in ORACLES:
        if selected is not None and name not in selected:
            continue
        if name in _SERVICE_ORACLES and not with_service and selected is None:
            continue
        if name in ("encoders", "incremental"):
            failures.extend(oracle(case, limit_per_node))
        else:
            failures.extend(oracle(case))
    return failures
