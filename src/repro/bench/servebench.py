"""``serve-bench``: throughput study of the ``repro.service`` backend.

Two questions, answered on a synthetic hot-context workload (deep
lane-chain graphs whose contexts share long piece prefixes, sampled with
a Zipf-shaped popularity curve — the traffic shape of a real profiler
where a few contexts dominate):

1. **Decode throughput.** How fast does the memoizing
   :class:`~repro.service.DecodeEngine` decode the stream versus the
   uncached baseline (same engine, caches disabled)? The acceptance bar
   on the hot-context stream: every repeat of a context hits the
   context cache (hit rate at least ``1 - contexts / samples``), and
   cached decode runs at least 5x the uncached rate.
2. **Ingestion under hot swap.** Producer threads feed the full
   :class:`~repro.service.ContextService` while a plan repair
   (``apply_delta`` -> ``install_update``) lands mid-stream. The service
   must lose no samples (block backpressure) and serve no mixed-epoch
   decodes: pre-swap samples decode under the pre-swap plan even when
   drained after the swap.

``python -m repro serve-bench [--quick] [--json out.json]``.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.incremental import GraphDelta
from repro.bench.reporting import (
    Column,
    render_table,
    sci,
    write_bench_json,
)
from repro.core.widths import Width
from repro.graph.callgraph import CallGraph
from repro.postprocess import top_k
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import DeltaPathPlan, build_plan_from_graph
from repro.service import (
    ContextService,
    DecodeEngine,
    SampleBatch,
    ServiceConfig,
)

__all__ = [
    "lane_chain",
    "build_workload",
    "decode_study",
    "ingest_study",
    "batch_ingest_study",
    "multiproc_ingest_study",
    "store_study",
    "serve_bench",
    "render_serve_bench",
    "run",
    "write_bench_json",
]

Observation = Tuple[str, Tuple[tuple, int]]

DEFAULT_DEPTH = 40
DEFAULT_LANES = 2
DEFAULT_CONTEXTS = 400
DEFAULT_SAMPLES = 120_000
DEFAULT_WIDTH = Width(16)
QUICK_SAMPLES = 15_000
QUICK_CONTEXTS = 150
#: Fresh-engine passes per decode study; the study reports their median.
DECODE_PASSES = 5
#: Zipf exponent of the popularity curve.
ZIPF_S = 1.2


def lane_chain(depth: int = DEFAULT_DEPTH, lanes: int = DEFAULT_LANES) -> CallGraph:
    """A depth-``depth`` chain with ``lanes`` parallel call sites per hop.

    Lane choices multiply the context count (``lanes**depth``), so a
    narrow width forces Algorithm 2 to anchor every few hops — contexts
    become multi-piece stacks whose outer pieces are shared, which is
    exactly what the interning cache exploits.
    """
    graph = CallGraph("main")
    prev = "main"
    for d in range(depth):
        node = f"f{d}"
        for lane in range(lanes):
            graph.add_edge(prev, node, f"d{d}l{lane}")
        prev = node
    return graph


def _walk_snapshot(
    plan: DeltaPathPlan, path: Sequence[Tuple[str, str, str]]
) -> Observation:
    """Drive a fresh probe along ``path``; return (leaf, snapshot)."""
    probe = DeltaPathProbe(plan, cpt=True)
    probe.begin_execution(plan.graph.entry)
    probe.enter_function(plan.graph.entry)
    node = plan.graph.entry
    for caller, label, callee in path:
        probe.before_call(caller, label, callee)
        probe.enter_function(callee)
        node = callee
    return node, probe.snapshot(node)


def build_workload(
    depth: int = DEFAULT_DEPTH,
    lanes: int = DEFAULT_LANES,
    contexts: int = DEFAULT_CONTEXTS,
    seed: int = 1,
    width: Width = DEFAULT_WIDTH,
) -> Tuple[CallGraph, DeltaPathPlan, List[Observation], List[float]]:
    """The synthetic hot-context population.

    Returns ``(graph, plan, observations, weights)``: ``contexts``
    distinct contexts (random lane choices, random depths) plus their
    Zipf weights, heaviest first.
    """
    rng = random.Random(seed)
    graph = lane_chain(depth, lanes)
    plan = build_plan_from_graph(graph, width=width)
    seen = set()
    observations: List[Observation] = []
    while len(observations) < contexts:
        d = rng.randrange(max(depth // 2, 1), depth)
        path = []
        prev = "main"
        choices = []
        for hop in range(d):
            lane = rng.randrange(lanes)
            choices.append(lane)
            path.append((prev, f"d{hop}l{lane}", f"f{hop}"))
            prev = f"f{hop}"
        key = (d, tuple(choices))
        if key in seen:
            continue
        seen.add(key)
        observations.append(_walk_snapshot(plan, path))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(contexts)]
    return graph, plan, observations, weights


def _stream(
    observations: Sequence[Observation],
    weights: Sequence[float],
    samples: int,
    seed: int,
) -> List[Observation]:
    rng = random.Random(seed + 7)
    return rng.choices(observations, weights=weights, k=samples)


def _submit_in_batches(
    service: ContextService,
    stream: Sequence[Observation],
    size: int,
    epoch: int,
) -> None:
    """Submit ``stream`` as ``size``-sample batches stamped ``epoch``."""
    for lo in range(0, len(stream), size):
        service.submit_batch(
            SampleBatch.from_observations(stream[lo:lo + size], epoch=epoch)
        )


# ----------------------------------------------------------------------
# Study 1: decode throughput, cached vs uncached
# ----------------------------------------------------------------------
def decode_study(
    plan: DeltaPathPlan,
    stream: Sequence[Observation],
    *,
    piece_cache: int = 1 << 16,
    context_cache: int = 1 << 16,
) -> Dict[str, object]:
    """Decode the whole stream through one engine configuration.

    Times :data:`DECODE_PASSES` passes, each through a fresh engine
    (cold caches), and reports the median pass (``elapsed_ms``,
    ``per_s``) beside every pass's rate in order (``pass_per_s``). Hit
    rates are the last pass's; every pass decodes the same stream from
    the same cold start.
    """
    elapsed: List[float] = []
    for _ in range(DECODE_PASSES):
        engine = DecodeEngine(
            plan, piece_cache=piece_cache, context_cache=context_cache
        )
        start = time.perf_counter()
        for node, snapshot in stream:
            engine.decode_path(node, snapshot)
        elapsed.append(time.perf_counter() - start)
    caches = engine.cache_stats()

    def rate(seconds: float) -> float:
        return len(stream) / seconds if seconds else float("inf")

    median = statistics.median(elapsed)
    return {
        "samples": len(stream),
        "passes": DECODE_PASSES,
        "elapsed_ms": median * 1000.0,
        "per_s": rate(median),
        "pass_per_s": [rate(seconds) for seconds in elapsed],
        "piece_hit_rate": _hit_rate(caches["pieces"]),
        "context_hit_rate": _hit_rate(caches["contexts"]),
    }


def _hit_rate(stats: dict) -> float:
    total = stats["hits"] + stats["misses"]
    return stats["hits"] / total if total else 0.0


# ----------------------------------------------------------------------
# Study 2: concurrent ingestion racing a plan hot swap
# ----------------------------------------------------------------------
def _swap_delta(graph: CallGraph, depth: int) -> Tuple[GraphDelta, str, str]:
    """One loaded class hanging off the chain's midpoint."""
    mid = f"f{depth // 2}"
    g2 = graph.copy()
    edge = g2.add_edge(mid, "plugin.m", "load")
    return (
        GraphDelta(added_nodes={"plugin.m": {}}, added_edges=(edge,)),
        mid,
        edge.label,
    )


def ingest_study(
    graph: CallGraph,
    plan: DeltaPathPlan,
    stream: Sequence[Observation],
    *,
    depth: int = DEFAULT_DEPTH,
    lanes: int = DEFAULT_LANES,
    producers: int = 3,
    workers: int = 2,
    shards: int = 8,
    seed: int = 1,
    swap_at: float = 0.4,
) -> Dict[str, object]:
    """Feed the service from ``producers`` threads; swap plans mid-stream.

    Each producer packs its slice into :class:`SampleBatch` chunks of the
    service's drain size, stamped with its plan's epoch. The last
    producer waits for the swap and then submits post-swap traffic
    (walks into the newly loaded class) under the repaired plan, while
    the others keep submitting pre-swap snapshots — which the service
    must keep decoding under the *old* epoch.
    """
    delta, mid, label = _swap_delta(graph, depth)
    update = plan.apply_delta(delta)

    # Post-swap traffic: contexts that only exist under the new plan.
    rng = random.Random(seed + 13)
    new_observations = []
    for _ in range(16):
        d = depth // 2
        path = [("main", f"d0l{rng.randrange(lanes)}", "f0")]
        for hop in range(1, d + 1):
            path.append(
                (f"f{hop - 1}", f"d{hop}l{rng.randrange(lanes)}", f"f{hop}")
            )
        path.append((mid, label, "plugin.m"))
        new_observations.append(_walk_snapshot(update.plan, path))
    new_stream = rng.choices(new_observations, k=max(len(stream) // 4, 1))

    service = ContextService(
        plan,
        ServiceConfig(
            shards=shards,
            workers=workers,
            backpressure="block",
            queue_capacity=4096,
        ),
    )
    service.start()
    swap_installed = threading.Event()
    swap_trigger = threading.Event()
    old_submitted = [0] * producers
    errors: List[BaseException] = []

    slices = [stream[i::producers] for i in range(producers)]
    trigger_index = int(len(slices[0]) * swap_at)

    size = service.config.drain_budget

    def produce_old(pid: int) -> None:
        try:
            epoch = service.engine.epoch_of(plan)
            mine = slices[pid]
            split = trigger_index if pid == 0 else len(mine)
            _submit_in_batches(service, mine[:split], size, epoch)
            if pid == 0:
                swap_trigger.set()
            _submit_in_batches(service, mine[split:], size, epoch)
            old_submitted[pid] = len(mine)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def produce_new() -> None:
        try:
            swap_installed.wait(timeout=60)
            epoch = service.engine.epoch_of(update.plan)
            _submit_in_batches(service, new_stream, size, epoch)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=produce_old, args=(pid,), daemon=True)
        for pid in range(producers)
    ] + [threading.Thread(target=produce_new, daemon=True)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    # The swap races live pre-swap submissions by construction: it is
    # installed while producer 0 (and the others) are still submitting.
    swap_trigger.wait(timeout=60)
    service.install_update(update)
    swap_installed.set()
    for thread in threads:
        thread.join(timeout=120)
    service.flush(timeout=120)
    elapsed = time.perf_counter() - start
    if errors:  # pragma: no cover - producer failure is a bench bug
        raise errors[0]

    # stats() = service_metrics() plus the flattened obs registry, so
    # BENCH_serve.json and BENCH_obs.json share one metric namespace
    # (dotted names like ``service.submitted``).
    metrics = service.stats()
    total_submitted = metrics["submitted"]
    plugin_count = service.function_totals().get("plugin.m", 0)
    result = {
        "samples": total_submitted,
        "elapsed_ms": elapsed * 1000.0,
        "per_s": total_submitted / elapsed if elapsed else float("inf"),
        "queue_peak": metrics["queue_peak"],
        "lost": total_submitted - metrics["aggregated"],
        "dropped": metrics["dropped"],
        "decode_errors": metrics["decode_errors"],
        "mixed_epoch": metrics["epoch_mismatches"],
        "hot_swaps": metrics["hot_swaps"],
        "pre_swap_samples": sum(old_submitted),
        "post_swap_samples": len(new_stream),
        "plugin_samples": plugin_count,
        "unique_contexts": metrics["unique_contexts"],
        "shard_imbalance": metrics["shards"]["imbalance"],
        "decode_p50_us": metrics["decode_latency"]["p50_us"],
        "decode_p99_us": metrics["decode_latency"]["p99_us"],
        "registry": metrics["registry"],
    }
    service.stop()
    return result


# ----------------------------------------------------------------------
# Study 3: columnar submit_batch against a per-sample decode
# ----------------------------------------------------------------------
def _decoded_counts(
    plan: DeltaPathPlan, stream: Sequence[Observation]
) -> Dict[Tuple[str, ...], int]:
    """Context counts from decoding ``stream`` one sample at a time."""
    engine = DecodeEngine(plan)
    counts: Dict[Tuple[str, ...], int] = {}
    for node, snapshot in stream:
        path, _gaps, _epoch = engine.decode_path(node, snapshot)
        counts[path] = counts.get(path, 0) + 1
    return counts


def batch_ingest_study(
    plan: DeltaPathPlan,
    stream: Sequence[Observation],
    *,
    workers: int = 2,
    shards: int = 8,
    batch_max: int = 2048,
) -> Dict[str, object]:
    """Columnar ``submit_batch`` ingest of the stream, ``batch_max``
    samples at a time. Besides the throughput, the study asserts that
    every sample aggregated and that ``top_contexts`` and
    ``function_totals`` equal a per-sample decode of the same stream.
    """
    service = ContextService(
        plan,
        ServiceConfig(
            shards=shards,
            workers=workers,
            backpressure="block",
            queue_capacity=4096,
            batch_max=batch_max,
        ),
    )
    service.start()
    start = time.perf_counter()
    _submit_in_batches(service, stream, batch_max, 0)
    service.flush(timeout=240)
    elapsed = time.perf_counter() - start
    acct = service.accounting()
    top = service.top_contexts(10)
    totals = service.function_totals()
    service.stop()

    counts = _decoded_counts(plan, stream)
    want_totals: Dict[str, int] = {}
    for path, count in counts.items():
        for name in set(path):
            want_totals[name] = want_totals.get(name, 0) + count
    return {
        "batch": {
            "samples": acct["submitted"],
            "elapsed_ms": elapsed * 1000.0,
            "per_s": acct["submitted"] / elapsed if elapsed else float("inf"),
            "aggregated": acct["aggregated"],
            "dropped": acct["dropped"],
        },
        "batch_max": batch_max,
        "accounting_match": (
            acct["submitted"] == len(stream)
            and acct["aggregated"] == len(stream)
            and top == top_k(counts, 10)
            and totals == want_totals
        ),
    }


# ----------------------------------------------------------------------
# Study 4: decode scale-out across worker processes
# ----------------------------------------------------------------------
def multiproc_ingest_study(
    plan: DeltaPathPlan,
    observations: Sequence[Observation],
    *,
    samples: int = 24_000,
    worker_counts: Sequence[int] = (1, 2, 4),
    batch_max: int = 1024,
) -> Dict[str, object]:
    """Batch ingest through the process fleet at increasing widths.

    The stream cycles the distinct contexts so dedup-then-decode cannot
    collapse the work, and the decode children run uncached — the cost
    being distributed across processes is real per-sample decode, not
    cache lookups. Throughput is end-to-end: submit every batch over
    the shared-memory lanes, then drain to quiescence. ``scaling_x``
    maps each fleet width to its throughput relative to one worker;
    genuine scaling needs as many cores as workers, so ``cores`` is
    recorded alongside and a single-core machine will (correctly)
    report ~1x.
    """
    import os

    stream = [observations[i % len(observations)] for i in range(samples)]
    batches = [
        SampleBatch.from_observations(stream[lo:lo + batch_max], epoch=0)
        for lo in range(0, len(stream), batch_max)
    ]
    counts: Dict[str, object] = {}
    for width in worker_counts:
        service = ContextService(
            plan,
            ServiceConfig(
                worker_processes=width,
                shards=max(8, 2 * width),
                piece_cache=0,
                context_cache=0,
                batch_max=batch_max,
            ),
        )
        service.start()
        start = time.perf_counter()
        for batch in batches:
            service.submit_batch(batch)
        service.flush(timeout=600)
        elapsed = time.perf_counter() - start
        acct = service.accounting()
        service.stop()
        counts[str(width)] = {
            "workers": width,
            "samples": acct["submitted"],
            "aggregated": acct["aggregated"],
            "elapsed_ms": elapsed * 1000.0,
            "per_s": (
                acct["submitted"] / elapsed if elapsed else float("inf")
            ),
        }
    base = counts[str(worker_counts[0])]["per_s"]
    return {
        "batch_max": batch_max,
        "cores": os.cpu_count() or 1,
        "counts": counts,
        "scaling_x": {
            str(width): (
                counts[str(width)]["per_s"] / base if base else None
            )
            for width in worker_counts
        },
    }


# ----------------------------------------------------------------------
# Study 5: compressed context store vs tuples-of-strings
# ----------------------------------------------------------------------
def _cct_paths(
    contexts: int, *, names: int = 512, max_depth: int = 64, seed: int = 1
) -> List[Tuple[str, ...]]:
    """Contexts forming a calling-context tree, in discovery order.

    Real collectors retain a context for *every* live frame (``on_entry``
    fires at each level), so the retained set is closed under
    prefixes — a CCT, not an arbitrary path set. Growth mimics a trace:
    most of the time the walk deepens the current context (long shared
    trunks), sometimes it jumps back to an arbitrary known context
    (branching).
    """
    rng = random.Random(seed + 31)
    pool = [f"fn{i}" for i in range(names)]
    paths: List[Tuple[str, ...]] = [("main",)]
    seen = {("main",)}
    current = ("main",)
    while len(paths) < contexts:
        if len(current) >= max_depth or rng.random() >= 0.8:
            current = paths[rng.randrange(len(paths))]
        current = current + (pool[rng.randrange(names)],)
        if current not in seen:
            seen.add(current)
            paths.append(current)
    return paths


def _tuple_baseline_bytes(paths: Sequence[Tuple[str, ...]]) -> int:
    """Bytes of the pre-batch representation: tuples of shared strings.

    The old shards kept each retained context as a tuple of interned
    function-name strings, so the honest baseline counts each tuple
    object plus every distinct string once.
    """
    import sys as _sys

    total = _sys.getsizeof({i: None for i in range(len(paths))})
    names = set()
    for path in paths:
        total += _sys.getsizeof(path)
        for name in path:
            if name not in names:
                names.add(name)
                total += _sys.getsizeof(name)
    return total


def store_study(
    contexts: int = 4000,
    *,
    seed: int = 1,
) -> Dict[str, object]:
    """Retained-context footprint: delta trie + zlib blocks vs tuples.

    Uses a calling-context-tree workload (the lane-chain stream
    collapses to a couple dozen distinct contexts; footprint only
    matters at scale) and reports bytes-per-retained-context for the
    compressed store, the uncompressed trie, and the old
    tuples-of-strings baseline, verifying the store round-trips the
    paths it interned.
    """
    from repro.service import ContextStore

    paths = _cct_paths(contexts, seed=seed)
    mean_depth = sum(len(p) for p in paths) / len(paths)
    result: Dict[str, object] = {
        "contexts": len(paths),
        "mean_depth": mean_depth,
    }
    for compression in ("zlib", "none"):
        store = ContextStore(compression=compression)
        pids = [store.intern(path) for path in paths]
        stats = store.stats()
        round_trip_ok = all(
            store.path(pid) == path
            for pid, path in zip(pids[:: max(len(pids) // 64, 1)],
                                 paths[:: max(len(paths) // 64, 1)])
        )
        result[compression] = {
            "bytes": stats["bytes"],
            "bytes_per_context": stats["bytes_per_context"],
            "sealed_blocks": stats["sealed_blocks"],
            "nodes": stats["nodes"],
            "round_trip_ok": round_trip_ok,
        }
        del store
    baseline = _tuple_baseline_bytes(paths)
    result["tuple_bytes"] = baseline
    result["tuple_bytes_per_context"] = baseline / len(paths)
    zlib_bytes = result["zlib"]["bytes"]
    result["reduction_vs_tuples"] = (
        baseline / zlib_bytes if zlib_bytes else None
    )
    return result


# ----------------------------------------------------------------------
# The full benchmark
# ----------------------------------------------------------------------
def serve_bench(
    quick: bool = False,
    *,
    depth: int = DEFAULT_DEPTH,
    lanes: int = DEFAULT_LANES,
    contexts: Optional[int] = None,
    samples: Optional[int] = None,
    shards: int = 8,
    workers: int = 2,
    producers: int = 3,
    seed: int = 1,
    top: int = 5,
) -> Dict[str, object]:
    """Run both studies; returns the JSON-ready result dict."""
    if contexts is None:
        contexts = QUICK_CONTEXTS if quick else DEFAULT_CONTEXTS
    if samples is None:
        samples = QUICK_SAMPLES if quick else DEFAULT_SAMPLES
    graph, plan, observations, weights = build_workload(
        depth=depth, lanes=lanes, contexts=contexts, seed=seed
    )
    stream = _stream(observations, weights, samples, seed)

    uncached = decode_study(plan, stream, piece_cache=0, context_cache=0)
    cached = decode_study(plan, stream)
    speedup = (
        cached["per_s"] / uncached["per_s"] if uncached["per_s"] else None
    )

    ingest = ingest_study(
        graph,
        plan,
        stream,
        depth=depth,
        lanes=lanes,
        producers=producers,
        workers=workers,
        shards=shards,
        seed=seed,
    )

    batch_ingest = batch_ingest_study(
        plan, stream, workers=workers, shards=shards
    )
    multiproc = multiproc_ingest_study(
        plan, observations, samples=min(samples, 24_000)
    )
    store = store_study(4000 if quick else 20000, seed=seed)

    counts = _decoded_counts(plan, stream)
    hottest = sorted(counts.items(), key=lambda kv: -kv[1])[:top]

    return {
        "benchmark": "serve-bench",
        "quick": quick,
        "workload": {
            "depth": depth,
            "lanes": lanes,
            "contexts": contexts,
            "samples": samples,
            "width_bits": DEFAULT_WIDTH.bits,
            "anchors": len(plan.encoding.anchors),
            "seed": seed,
        },
        "decode": {
            "uncached": uncached,
            "cached": cached,
            "speedup": speedup,
        },
        "ingest": ingest,
        "batch_ingest": batch_ingest,
        "multiproc": multiproc,
        "store": store,
        # Headline numbers, surfaced flat for dashboards and the CI gate.
        "batch_ingest_per_s": batch_ingest["batch"]["per_s"],
        "multiproc_scaling_x": multiproc["scaling_x"]["4"],
        "bytes_per_context": store["zlib"]["bytes_per_context"],
        "top_contexts": [
            {"count": count, "path": list(path)} for path, count in hottest
        ],
    }


# ----------------------------------------------------------------------
# Matrix entry point
# ----------------------------------------------------------------------
def run(config: Mapping[str, object]) -> Dict[str, object]:
    """One ``bench-matrix`` cell: decode, ingest and store footprint
    under a named configuration.

    ``config`` is a plain mapping from :mod:`repro.bench.matrix` — the
    knobs this target honours are ``cached``, ``shards``, ``workers``,
    ``worker_processes``, ``resilience``, ``compression``, ``quick``
    and ``seed``.
    Returns flat scalar ``metrics`` plus the ``gated`` subset the
    regression gate diffs against the committed baseline. Gated keys are
    config-independent (every cell reports the same names), so each
    configuration gates against its *own* history.
    """
    from repro.service import ContextStore

    quick = bool(config.get("quick", True))
    seed = int(config.get("seed", 1))
    cached = bool(config.get("cached", True))
    shards = int(config.get("shards", 8))
    workers = int(config.get("workers", 2))
    worker_processes = int(config.get("worker_processes", 0))
    compression = str(config.get("compression", "zlib"))
    batch_max = 2048

    contexts = QUICK_CONTEXTS if quick else DEFAULT_CONTEXTS
    samples = QUICK_SAMPLES if quick else DEFAULT_SAMPLES
    _graph, plan, observations, weights = build_workload(
        contexts=contexts, seed=seed
    )
    stream = _stream(observations, weights, samples, seed)

    # Decode: the configured engine vs the always-uncached floor.
    uncached = decode_study(plan, stream, piece_cache=0, context_cache=0)
    if cached:
        decode = decode_study(plan, stream)
    else:
        decode = decode_study(plan, stream, piece_cache=0, context_cache=0)
    decode_speedup = (
        decode["per_s"] / uncached["per_s"] if uncached["per_s"] else 0.0
    )

    # Ingest: the configured service, fed in batch_max-sample batches.
    resilience = None
    if config.get("resilience"):
        from repro.resilience import ResilienceConfig

        resilience = ResilienceConfig(seed=seed)
    cache_size = (1 << 16) if cached else 0
    service = ContextService(
        plan,
        ServiceConfig(
            shards=shards,
            workers=workers,
            backpressure="block",
            queue_capacity=4096,
            batch_max=batch_max,
            store_compression=compression,
            piece_cache=cache_size,
            context_cache=cache_size,
            worker_processes=worker_processes,
        ),
        resilience=resilience,
    )
    service.start()
    start = time.perf_counter()
    _submit_in_batches(service, stream, batch_max, 0)
    service.flush(timeout=240)
    ingest_elapsed = time.perf_counter() - start
    acct = service.accounting()
    service.stop()
    ingest_per_s = (
        acct["submitted"] / ingest_elapsed if ingest_elapsed else 0.0
    )

    # Retained footprint of the configured store compression. The
    # block size is shrunk so the workload actually seals blocks —
    # compression only applies at sealing, and an all-open-tail store
    # would report the same bytes for every compression setting.
    paths = _cct_paths(2000 if quick else 8000, seed=seed)
    store = ContextStore(compression=compression, block_size=512)
    for path in paths:
        store.intern(path)
    bytes_per_context = store.stats()["bytes_per_context"]
    del store

    metrics = {
        "decode_per_s": decode["per_s"],
        "decode_uncached_per_s": uncached["per_s"],
        "decode_speedup_x": decode_speedup,
        "ingest_per_s": ingest_per_s,
        "ingest_samples": acct["submitted"],
        "ingest_aggregated": acct["aggregated"],
        "ingest_lost": acct["submitted"] - (
            acct["aggregated"] + acct["dead_lettered"]
            + acct["epoch_mismatches"] + acct["dropped"]
            + acct["fallback_dropped"] + acct["fallback_pending"]
        ),
        "store_bytes_per_context": bytes_per_context,
    }
    return {
        "target": "serve",
        "metrics": metrics,
        "gated": {
            "ingest_per_s": ingest_per_s,
            "decode_per_s": decode["per_s"],
            "decode_uncached_per_s": uncached["per_s"],
            "store_bytes_per_context": bytes_per_context,
        },
    }


_DECODE_COLUMNS: List[Column] = [
    ("config", "config", str),
    ("samples", "samples", sci),
    ("elapsed_ms", "elapsed ms", sci),
    ("per_s", "decodes/s", sci),
    ("piece_hit_rate", "piece hit", sci),
    ("context_hit_rate", "ctx hit", sci),
]


def render_serve_bench(result: Dict[str, object]) -> str:
    """Human-readable report of one :func:`serve_bench` run."""
    decode = result["decode"]
    rows = [
        dict(config=name, **decode[name])
        for name in ("uncached", "cached")
    ]
    lines = [
        render_table(
            rows,
            _DECODE_COLUMNS,
            title=(
                "serve-bench decode throughput (hot-context stream, "
                f"median of {DECODE_PASSES} fresh-engine passes, "
                f"speedup cached/uncached: {sci(decode['speedup'])}x)"
            ),
        ),
        "",
    ]
    ingest = result["ingest"]
    lines.append(
        "ingestion under hot swap: "
        f"{sci(ingest['samples'])} samples at {sci(ingest['per_s'])}/s, "
        f"queue peak {ingest['queue_peak']}, "
        f"lost {ingest['lost']}, mixed-epoch {ingest['mixed_epoch']}, "
        f"decode errors {ingest['decode_errors']}, "
        f"plugin contexts {sci(ingest['plugin_samples'])}"
    )
    batch = result["batch_ingest"]
    verdict = "match" if batch["accounting_match"] else "DIVERGED from"
    lines.append(
        f"batch ingestion: {sci(batch['batch']['per_s'])}/s "
        f"({verdict} the per-sample decode)"
    )
    multiproc = result["multiproc"]
    lines.append(
        "process-fleet batch ingest ({} core(s)): ".format(
            multiproc["cores"]
        )
        + ", ".join(
            f"{row['workers']}w {sci(row['per_s'])}/s "
            f"({sci(multiproc['scaling_x'][key])}x)"
            for key, row in sorted(
                multiproc["counts"].items(), key=lambda kv: int(kv[0])
            )
        )
    )
    store = result["store"]
    lines.append(
        "context store footprint: "
        f"{sci(store['zlib']['bytes_per_context'])} B/ctx compressed vs "
        f"{sci(store['tuple_bytes_per_context'])} B/ctx tuples "
        f"({sci(store['reduction_vs_tuples'])}x smaller, "
        f"{store['contexts']} contexts)"
    )
    lines.append("")
    lines.append("hottest contexts:")
    for entry in result["top_contexts"]:
        path = entry["path"]
        shown = " -> ".join(path if len(path) <= 6 else
                            path[:3] + ["..."] + path[-2:])
        lines.append(f"  {entry['count']:>8}  {shown}")
    return "\n".join(lines)


