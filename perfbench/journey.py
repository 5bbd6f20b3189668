"""One seeded sample journey through every layer of the pipeline.

Closed loop, one driver thread. The instrumented synthetic SPECjvm
program is the load generator; each round

1. runs ``ops_per_round`` program operations (``Interpreter.run``) with
   the DeltaPath probe and a ``ContextCollector`` feeding
   ``service.batch_sink()`` under the ``block`` backpressure policy, so a
   slow pipeline slows the program;
2. closes the collector, drains the service (``service.flush()``) and
   writes a query segment (``flush_segments()``);
3. on the durable workload, checkpoints and (every few rounds) compacts
   under retention caps;
4. refreshes a ``QueryEngine`` — from here the round's samples are
   queryable, which closes their freshness clock;
5. issues the workload's analyst queries.

Between rounds, outside every timed interval, the correctness gate
checks the conservation law, durable-versus-memory answers, and (on the
encoding-all workloads) decoded contexts against the collector's
shadow stacks.
"""

from __future__ import annotations

import os
import shutil
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph_builder import build_callgraph
from repro.postprocess import GAP
from repro.query.engine import QueryEngine
from repro.query.segment import load_segment
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.collector import ContextCollector
from repro.runtime.plan import build_plan_from_graph
from repro.runtime.probes import NullProbe
from repro.service import ContextService, ServiceConfig
from repro.workloads.specjvm import build_benchmark

import hostspeed
from layers import LayerClock, instrument_service

_perf = time.perf_counter

TOP_K = 10
#: The analyst queries of a round: (window in rounds, repetitions) of a
#: windowed top-K. Repeating each query makes every percentile land
#: inside one query's cluster of latencies rather than on the edge
#: between two, which keeps p50 and the tail steady from run to run.
QUERY_MIX = ((1, 3), (2, 4), (4, 3))
#: Setups per run; ``setup_s`` is their median.
SETUPS = 3
#: Traced, one collector-sink call in this many is timed.
SINK_TIMED_EVERY = 16
#: One sample in this many is checked against its shadow stack.
PRECISION_EVERY = 97
#: Durable-versus-memory answers are compared on one round in this many
#: (seeded) and on the last round: each comparison re-reads the whole
#: store.
DURABLE_CHECK_EVERY = 4
#: The durable workload's reader pins its snapshot for this long.
PIN_LEASE_S = 30.0


@dataclass(frozen=True)
class Workload:
    """One traffic shape (``BENCHMARK.json`` says why each exists);
    ``rounds = round(seconds * rounds_per_second)``."""

    name: str
    program: str
    application_only: bool
    ops_per_round: int
    rounds_per_second: float
    #: Checkpoint every round, compact every ``compact_every`` rounds
    #: under the retention caps, read through a pinned reader, and add
    #: diff and rollup queries to the top-K mix.
    durable: bool = False
    compact_every: int = 0
    retention_max_segments: Optional[int] = None
    retention_max_bytes: Optional[int] = None

    def rounds(self, seconds: float) -> int:
        return max(2, int(round(seconds * self.rounds_per_second)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hot-loop",
            program="compress",
            application_only=True,
            ops_per_round=40,
            rounds_per_second=4.0,
        ),
        Workload(
            name="wide-anchored",
            program="sunflow",
            application_only=False,
            ops_per_round=7,
            rounds_per_second=0.75,
        ),
        Workload(
            name="durable-churn",
            program="xml.transform",
            application_only=True,
            ops_per_round=3,
            rounds_per_second=1.8,
            durable=True,
            compact_every=4,
            retention_max_segments=8,
            retention_max_bytes=256 * 1024,
        ),
    )
}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Setup:
    """The program, its static call graph and encoding plan."""

    benchmark: object
    plan: object
    times: Dict[str, float]


def build(workload: Workload) -> Setup:
    t0 = _perf()
    benchmark = build_benchmark(workload.program)
    t1 = _perf()
    graph = build_callgraph(benchmark.program, include_dynamic=False)
    t2 = _perf()
    plan = build_plan_from_graph(graph, application_only=workload.application_only)
    t3 = _perf()
    return Setup(benchmark, plan, {
        "program_s": t1 - t0,
        "callgraph_s": t2 - t1,
        "plan_s": t3 - t2,
    })


def start_service(workload: Workload, plan, root: str) -> ContextService:
    """A started service whose every file lives under ``root``."""
    os.makedirs(root, exist_ok=True)
    config = ServiceConfig(
        backpressure="block",
        segment_dir=os.path.join(root, "segments"),
        retention_max_segments=workload.retention_max_segments,
        retention_max_bytes=workload.retention_max_bytes,
    )
    return ContextService(plan, config).start()


def timed_setups(workload: Workload, workdir: str, count: int = SETUPS):
    """Set up ``count`` times; returns the last set-up and every timing.

    One set-up is: build the program, its static call graph and the
    encoding plan (anchors included), then start the service. All but
    the last service are stopped at once; the caller owns the last.
    """
    timings: List[Dict[str, float]] = []
    last = None
    for index in range(count):
        root = os.path.join(workdir, f"setup-{index}")
        before = hostspeed.measure()
        t0 = _perf()
        setup = build(workload)
        t1 = _perf()
        middle = hostspeed.measure()
        t2 = _perf()
        service = start_service(workload, setup.plan, root)
        t3 = _perf()
        after = hostspeed.measure()
        setup.times["start_s"] = t3 - t2
        setup.times["setup_s"] = (t1 - t0) + (t3 - t2)
        setup.times["scaled_setup_s"] = (
            (t1 - t0) * hostspeed.scale(before, middle)
            + (t3 - t2) * hostspeed.scale(middle, after)
        )
        timings.append(setup.times)
        if index + 1 < count:
            service.stop()
            shutil.rmtree(root, ignore_errors=True)
        else:
            last = (setup, service, root)
    return last, timings


# ----------------------------------------------------------------------
# The journey
# ----------------------------------------------------------------------
@dataclass
class JourneyResult:
    rounds: int
    ops: int
    samples: int = 0
    failed_samples: int = 0
    queries: int = 0
    failed_queries: int = 0
    #: Wall time in ``Interpreter.run`` and in its native twin, both
    #: host-speed scaled.
    app_wall: float = 0.0
    native_wall: float = 0.0
    journey_wall: float = 0.0
    #: Journey wall time scaled to the nominal host speed.
    scaled_wall: float = 0.0
    round_walls: List[float] = field(default_factory=list)
    round_factors: List[float] = field(default_factory=list)
    round_samples: List[int] = field(default_factory=list)
    #: Per-sample freshness and per-query latency, host-speed scaled.
    freshness_ms: array = field(default_factory=lambda: array("d"))
    query_ms: Dict[str, List[float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    precision_checked: int = 0
    disk_bytes: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    ucp_detections: int = 0
    #: Time the correctness gate took (never inside a timed interval).
    gate_s: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.problems


class _Stamps:
    """The sink wrapper's per-round state: creation stamps and the
    seeded ground-truth subsample."""

    def __init__(self, seed: int, precision: bool):
        self.times = array("d")
        self.truth: List[Tuple[str, object, Tuple[str, ...]]] = []
        self.count = 0
        self.offset = seed % PRECISION_EVERY
        self.precision = precision
        self.collector = None


def _make_sink(inner, stamps: _Stamps, clock: Optional[LayerClock]):
    """Collector sink: stamp creation time, keep the truth subsample,
    hand the observation to ``service.batch_sink()``.

    Traced, one call in :data:`SINK_TIMED_EVERY` is timed as the
    ``service.batch`` layer (a per-call clock read would cost more than
    the sink itself); the report scales the sampled time up to all calls.
    """
    append = stamps.times.append
    precision = stamps.precision
    offset = stamps.offset

    def sink(node, snapshot, probe=None):
        append(_perf())
        n = stamps.count
        stamps.count = n + 1
        if precision and n % PRECISION_EVERY == offset:
            stamps.truth.append((node, snapshot, tuple(stamps.collector._shadow)))
        if clock is not None and n % SINK_TIMED_EVERY == 0:
            clock.call("service.batch", inner, node, snapshot, probe, span=False)
        else:
            inner(node, snapshot, probe)

    return sink


def _conservation(service, created: int) -> List[str]:
    acct = service.accounting()
    accounted = (
        acct["aggregated"] + acct["dead_lettered"] + acct["epoch_mismatches"]
        + acct["dropped"] + acct["fallback_dropped"] + acct["fallback_pending"]
    )
    problems = []
    if accounted != acct["submitted"]:
        problems.append(
            f"conservation broken: submitted {acct['submitted']} != accounted {accounted}"
        )
    if acct["submitted"] != created:
        problems.append(
            f"collector made {created} samples but the service saw {acct['submitted']}"
        )
    return problems


def _cumulative(rows) -> Dict[tuple, Tuple[int, int]]:
    out: Dict[tuple, Tuple[int, int]] = {}
    for path, count, gaps, epoch in rows:
        key = (tuple(path), epoch)
        prev = out.get(key, (0, 0))
        out[key] = (prev[0] + count, prev[1] + gaps)
    return out


def _durable_problems(workload: Workload, service, engine) -> List[str]:
    """Durable answers against the in-memory aggregation."""
    if workload.durable:
        # Retention deletes whole spans, so compare totals instead:
        # live segments + retired totals == everything flushed.
        store = engine.store
        durable = _cumulative(row for seg in store.segments() for row in seg.rows)
        for key, (count, gaps) in store.retired_totals().items():
            prev = durable.get(key, (0, 0))
            durable[key] = (prev[0] + count, prev[1] + gaps)
        flushed = _cumulative(service.tree.rows())
        durable = {k: v for k, v in durable.items() if v != (0, 0)}
        flushed = {k: v for k, v in flushed.items() if v != (0, 0)}
        if durable != flushed:
            return [f"live + retired != flushed ({len(durable)} vs {len(flushed)} keys)"]
        return []
    problems = []
    if engine.top_contexts(TOP_K) != service.top_contexts(TOP_K):
        problems.append("durable top-K differs from the in-memory top-K")
    if engine.function_totals() != service.function_totals():
        problems.append("durable function totals differ from the in-memory ones")
    return problems


def _precision_problems(service, truth) -> List[str]:
    bad = 0
    for node, snapshot, shadow in truth:
        path, _gaps, _epoch = service.engine.decode_path(node, snapshot)
        if tuple(f for f in path if f != GAP) != shadow:
            bad += 1
    if bad:
        return [f"{bad} of {len(truth)} decoded contexts differ from the shadow stack"]
    return []


def _files(directory: str, suffixes: Tuple[str, ...]) -> List[str]:
    return [
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(suffixes)
    ]


def _account_new_segments(directory: str, seen: set, tally: dict,
                          load_rows: bool = False) -> None:
    """Add segment files not seen before to ``tally`` (bytes, and rows
    when ``load_rows``); runs outside every timed interval."""
    for path in _files(directory, (".dpqs",)):
        if path in seen:
            continue
        seen.add(path)
        tally["bytes"] += os.path.getsize(path)
        if load_rows:
            seg = load_segment(path)
            tally["rows"] += len(seg.rows) if seg is not None else 0


def _live_disk_bytes(engine, segment_dir: str, checkpoint_dir: Optional[str]) -> int:
    """Live segments + manifest + retired sidecars (+ checkpoints)."""
    paths = [seg.path for seg in engine.segments()]
    paths += _files(segment_dir, (".dpqm", ".dpqr"))
    if checkpoint_dir is not None:
        paths += [os.path.join(checkpoint_dir, name) for name in os.listdir(checkpoint_dir)]
    return sum(os.path.getsize(path) for path in paths)


def run_journey(
    workload: Workload,
    setup: Setup,
    service: ContextService,
    root: str,
    seed: int,
    rounds: int,
    clock: Optional[LayerClock] = None,
) -> JourneyResult:
    """Drive ``rounds`` rounds through ``service``; stops it at the end."""
    segment_dir = service.config.segment_dir
    checkpoint_dir = os.path.join(root, "checkpoints") if workload.durable else None
    result = JourneyResult(rounds=rounds, ops=rounds * workload.ops_per_round)
    for kind in ("topk", "diff", "rollup"):
        result.query_ms[kind] = []

    def call(name, fn, *args, **kwargs):
        if clock is None:
            return fn(*args, **kwargs)
        return clock.call(name, fn, *args, **kwargs)

    if clock is not None:
        instrument_service(clock, service)
    stamps = _Stamps(seed, precision=not workload.application_only)
    batch_sink = service.batch_sink()
    sink = _make_sink(batch_sink, stamps, clock)
    sink.flush = batch_sink.flush
    collector = ContextCollector(
        interest=setup.plan.instrumented_nodes, collect_events=False, sink=sink,
    )
    stamps.collector = collector
    probe = DeltaPathProbe(setup.plan, cpt=True)
    interp = setup.benchmark.make_interpreter(probe=probe, seed=seed, collector=collector)
    reader = QueryEngine(segment_dir, pin_lease_s=PIN_LEASE_S) if workload.durable else None

    seen_segments: set = set()
    written = {"rows": 0, "bytes": 0}
    compacted = {"runs": 0, "bytes": 0}
    edges = [time.time()]
    engine = None
    topk_segments = 0
    # The native program runs round by round beside the journey (same
    # seed, same operations), so host-speed drift hits both sides of
    # app_slowdown_x alike.
    native = setup.benchmark.make_interpreter(seed=seed)
    host = hostspeed.PhaseClock()
    try:
        for r in range(rounds):
            # Phase 1: the program runs while the service ingests, then
            # the service drains. Every later phase runs on the driver
            # thread with the service idle; each is scaled on its own.
            host.restart()
            t0 = _perf()
            call("runtime", interp.run, workload.ops_per_round)
            app = _perf() - t0
            collector.close()
            call("service.ingest.drain", service.flush)
            drained = _perf()
            phases = [host.lap()]
            call("query.writer", service.flush_segments)
            edges.append(time.time())
            phases.append(host.lap())
            _account_new_segments(segment_dir, seen_segments, written, load_rows=True)

            if workload.durable:
                host.restart()
                ckpt = call("resilience.checkpoint", service.checkpoint, checkpoint_dir)
                compacting = (
                    workload.compact_every and (r + 1) % workload.compact_every == 0
                )
                report = None
                if compacting:
                    report = call("query.compact", service.compact_segments, False)
                phases.append(host.lap())
                result.layer["checkpoint_bytes"] = os.path.getsize(ckpt)
                if report is not None:
                    compacted["runs"] += 1
                    _account_new_segments(segment_dir, seen_segments, compacted)
                host.restart()
                engine = call("query.engine.refresh", reader.refresh)
            else:
                host.restart()
                engine = call("query.engine.refresh", service.query)
            phases.append(host.lap())

            # The analyst queries issued between rounds.
            round_queries: List[Tuple[str, float]] = []
            for n, repeat in QUERY_MIX:
                window = (edges[max(0, r + 1 - n)], edges[r + 1])
                for _ in range(repeat):
                    _query(result, round_queries, "topk", call, "query.engine.topk",
                           engine.top_contexts, TOP_K, window=window)
            if workload.durable and r >= 1:
                _query(result, round_queries, "diff", call, "query.engine.diff",
                       engine.diff, (edges[r - 1], edges[r]), (edges[r], edges[r + 1]))
                _query(result, round_queries, "rollup", call, "query.engine.rollup",
                       engine.function_totals, window=(edges[max(0, r - 3)], edges[r + 1]))
            queried = host.lap()
            native.run(workload.ops_per_round)
            native_raw, native_factor = host.lap()

            run_factor = phases[0][1]
            later = sum(raw * factor for raw, factor in phases[1:])
            wall = sum(raw for raw, _f in phases) + queried[0]
            scaled = sum(raw * factor for raw, factor in phases) + queried[0] * queried[1]
            result.app_wall += app * run_factor
            result.native_wall += native_raw * native_factor
            result.round_walls.append(wall)
            result.round_factors.append(scaled / wall)
            result.round_samples.append(len(stamps.times))
            result.journey_wall += wall
            result.scaled_wall += scaled
            round_stamps = stamps.times
            result.freshness_ms.extend(
                ((drained - t) * run_factor + later) * 1e3 for t in round_stamps
            )
            result.samples += len(round_stamps)
            del round_stamps[:]
            for kind, ms in round_queries:
                result.query_ms[kind].append(ms * queried[1])

            if clock is not None:
                topk_segments += sum(
                    repeat * len(engine.segments((edges[max(0, r + 1 - n)], edges[r + 1])))
                    for n, repeat in QUERY_MIX
                )

            # The correctness gate, outside every timed interval.
            g0 = _perf()
            problems = _conservation(service, stamps.count)
            if r % DURABLE_CHECK_EVERY == seed % DURABLE_CHECK_EVERY or r == rounds - 1:
                problems += _durable_problems(workload, service, engine)
            if stamps.truth:
                problems += _precision_problems(service, stamps.truth)
                result.precision_checked += len(stamps.truth)
                stamps.truth = []
            result.problems.extend(f"round {r}: {p}" for p in problems)
            result.gate_s += _perf() - g0
            if len(result.problems) > 20:
                break

        acct = service.accounting()
        result.failed_samples = max(0, stamps.count - acct["aggregated"])
        result.disk_bytes = _live_disk_bytes(engine, segment_dir, checkpoint_dir)
        result.ucp_detections = probe.ucp_detections
        _collect_layer_facts(result, service, engine, written, compacted)
        result.layer["topk_segments"] = topk_segments
    finally:
        if reader is not None:
            reader.close()
        service.stop()
    return result


def _query(result: JourneyResult, latencies, kind: str, call, name: str, fn,
           *args, **kwargs):
    result.queries += 1
    t0 = _perf()
    try:
        call(name, fn, *args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a raising query is a failed operation
        result.failed_queries += 1
        result.problems.append(f"{kind} query raised {exc!r}")
        return
    latencies.append((kind, (_perf() - t0) * 1e3))


def _collect_layer_facts(result, service, engine, written, compacted) -> None:
    """Counts read from the service's public stats before it stops."""
    metrics = service.service_metrics()
    caches = metrics["caches"]

    def rate(stats):
        total = stats["hits"] + stats["misses"]
        return stats["hits"] / total if total else 0.0

    store = metrics["store"]
    layer = result.layer
    layer.update({
        "queue_peak": metrics["queue_peak"],
        "groups": metrics["batch.groups"],
        "context_hit_rate": rate(caches["contexts"]),
        "piece_hit_rate": rate(caches["pieces"]),
        "store_contexts": store["contexts"],
        "store_bytes_per_context": store["bytes_per_context"],
        "rows_written": written["rows"],
        "segment_bytes": written["bytes"],
        "compact_runs": compacted["runs"],
        "compact_bytes": compacted["bytes"],
        "segments_live": len(engine.segments()),
    })
    result.counts = {
        "samples": result.samples,
        "distinct_contexts": len(service.top_contexts(1 << 30, decoded=False)),
        "rows_written": written["rows"],
        "precision_checked": result.precision_checked,
    }


# ----------------------------------------------------------------------
# Differential runtime passes
# ----------------------------------------------------------------------
class _CallCounter(NullProbe):
    """Counts function entries; no encoding work."""

    def __init__(self):
        self.calls = 0

    def enter_function(self, node: str) -> None:
        self.calls += 1


def _seconds(interp, ops: int) -> float:
    t0 = _perf()
    interp.run(ops)
    return _perf() - t0


def runtime_passes(setup: Setup, seed: int, ops: int) -> Dict[str, float]:
    """Native, probe-only and probe + collector (null sink) passes over
    the journey's operations, plus a count of the calls they make."""
    plan = setup.plan
    bench = setup.benchmark
    counter = _CallCounter()
    bench.make_interpreter(probe=counter, seed=seed).run(ops)
    collector = ContextCollector(
        interest=plan.instrumented_nodes, collect_events=False,
        sink=lambda node, snapshot, probe=None: None,
    )
    return {
        "native_s": _seconds(bench.make_interpreter(seed=seed), ops),
        "probe_s": _seconds(
            bench.make_interpreter(probe=DeltaPathProbe(plan, cpt=True), seed=seed), ops
        ),
        "collector_s": _seconds(
            bench.make_interpreter(
                probe=DeltaPathProbe(plan, cpt=True), seed=seed, collector=collector
            ),
            ops,
        ),
        "calls": counter.calls,
        "samples": collector.total,
    }
