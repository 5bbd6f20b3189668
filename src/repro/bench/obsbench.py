"""``obs-bench``: what the observability layer itself costs.

The paper's argument is that context encoding is cheap enough to leave
on in production; ``repro.obs`` must clear the same bar, or its numbers
measure the instrumentation instead of the encoder. Two studies:

1. **Probe hot-loop overhead.** The probe cycle
   (``before_call``/``enter_function``/``snapshot``/``exit_function``/
   ``after_call``) timed under four configurations: a baseline probe
   whose ``snapshot`` is the shipped body minus obs, the shipped probe with
   sampling disabled (the production default — one integer increment and
   one test per snapshot), sampling every Nth snapshot, and sampling
   plus an enabled tracer. The acceptance bar is disabled-mode overhead
   within noise of the baseline (<= 5%).
2. **Trace layer coverage.** One end-to-end traced lifecycle — plan
   build, class-loading delta, live probe hot swap, service ingestion —
   must produce spans from at least three layers (``encode``/``plan``,
   ``probe``, ``service``), proving the Chrome trace export shows the
   whole pipeline, not one subsystem.

``python -m repro obs-bench [--smoke] [--json BENCH_obs.json]``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.incremental import GraphDelta
from repro.bench.reporting import (
    Column,
    render_table,
    sci,
    write_bench_json,
)
from repro.core.widths import Width
from repro.graph.callgraph import CallGraph
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, SampleBatch

__all__ = [
    "probe_overhead_study",
    "profiler_overhead_study",
    "trace_layers_demo",
    "obs_bench",
    "render_obs_bench",
    "run",
    "write_bench_json",
]

DEFAULT_DEPTH = 12
DEFAULT_ITERATIONS = 600
SMOKE_ITERATIONS = 60
DEFAULT_REPEATS = 5
SMOKE_REPEATS = 2
DEFAULT_SAMPLE_RATE = 64
#: Default sampling-profiler rate (ticks per second) under test.
DEFAULT_PROFILE_HZ = 100.0
#: The acceptance bar: the always-on profiler may slow the probe hot
#: loop by at most this much at the default rate.
PROFILER_TARGET_PCT = 5.0


class _BaselineProbe(DeltaPathProbe):
    """The probe with the ``snapshot`` body minus obs: the cost floor.

    Overriding just ``snapshot`` isolates exactly what ``repro.obs``
    added to the hot path (the sample counter, the rate test, and — when
    sampling — the timed observation); the stack interning both bodies
    share stays on both sides.
    """

    def snapshot(self, node):
        if self._stale:
            self._intern()
        if self._id > self.max_id_seen:
            self.max_id_seen = self._id
        return self._interned, self._id


def _chain_workload(depth: int) -> Tuple[CallGraph, List[Tuple[str, str, str]]]:
    """A straight call chain plus its (caller, label, callee) walk."""
    graph = CallGraph("main")
    path = []
    prev = "main"
    for d in range(depth):
        node = f"w{d}"
        graph.add_edge(prev, node, f"c{d}")
        path.append((prev, f"c{d}", node))
        prev = node
    return graph, path


def _time_loop(probe: DeltaPathProbe, path, iterations: int) -> float:
    """Run ``iterations`` full descend/snapshot/unwind cycles; seconds."""
    probe.begin_execution("main")
    probe.enter_function("main")
    start = time.perf_counter()
    for _ in range(iterations):
        for caller, label, callee in path:
            probe.before_call(caller, label, callee)
            probe.enter_function(callee)
            probe.snapshot(callee)
        for caller, label, callee in reversed(path):
            probe.exit_function(callee)
            probe.after_call(caller, label, callee)
    elapsed = time.perf_counter() - start
    probe.end_execution()
    return elapsed


def probe_overhead_study(
    *,
    depth: int = DEFAULT_DEPTH,
    iterations: int = DEFAULT_ITERATIONS,
    repeats: int = DEFAULT_REPEATS,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> List[Dict[str, object]]:
    """Per-op probe cost under each observability mode.

    One "op" is a full call-edge cycle: ``before_call`` + ``enter`` +
    ``snapshot`` + ``exit`` + ``after_call``. Each configuration is
    timed ``repeats`` times and the fastest run kept — scheduler noise
    only ever inflates. The previous obs configuration is restored on
    exit.
    """
    graph, path = _chain_workload(depth)
    plan = build_plan_from_graph(graph, width=Width(32))
    configs = [
        ("baseline", _BaselineProbe, 0, False),
        ("disabled", DeltaPathProbe, 0, False),
        ("sampled", DeltaPathProbe, sample_rate, False),
        ("traced", DeltaPathProbe, sample_rate, True),
    ]
    prev_rate = obs.probe_sample_rate()
    prev_tracing = obs.tracing_enabled()
    rows: List[Dict[str, object]] = []
    try:
        for name, probe_cls, rate, tracing in configs:
            obs.configure(probe_sample_rate=rate, tracing=tracing)
            best = min(
                _time_loop(probe_cls(plan, cpt=True), path, iterations)
                for _ in range(repeats)
            )
            ops = iterations * len(path)
            rows.append({"config": name, "ns_per_op": best / ops * 1e9})
    finally:
        obs.configure(probe_sample_rate=prev_rate, tracing=prev_tracing)
    base = rows[0]["ns_per_op"]
    for row in rows:
        row["overhead_pct"] = (row["ns_per_op"] / base - 1.0) * 100.0
    return rows


def _ops_per_s(probe: DeltaPathProbe, path, duration_s: float) -> float:
    """Run full descend/snapshot/unwind cycles for ``duration_s``."""
    probe.begin_execution("main")
    probe.enter_function("main")
    ops = 0
    start = time.perf_counter()
    deadline = start + duration_s
    while time.perf_counter() < deadline:
        for caller, label, callee in path:
            probe.before_call(caller, label, callee)
            probe.enter_function(callee)
            probe.snapshot(callee)
        for caller, label, callee in reversed(path):
            probe.exit_function(callee)
            probe.after_call(caller, label, callee)
        ops += len(path)
    elapsed = time.perf_counter() - start
    probe.end_execution()
    return ops / elapsed if elapsed else 0.0


def profiler_overhead_study(
    *,
    depth: int = DEFAULT_DEPTH,
    repeats: int = DEFAULT_REPEATS,
    hz: float = DEFAULT_PROFILE_HZ,
    duration_s: float = 0.4,
) -> Dict[str, object]:
    """What the always-on sampling profiler costs the code it profiles.

    The probe hot loop runs with no profiler and with a
    :class:`~repro.obs.profiler.SamplingProfiler` ticking at ``hz`` in
    the background, interleaved best-of-``repeats`` (noise only ever
    inflates). Each timed run lasts ``duration_s`` of wall clock — many
    tick periods, so the comparison measures steady-state contention
    instead of whether a tick happened to land inside a microscopic
    window. The profiler's cost is per *tick*, not per operation — the
    sampled threads pay only GIL contention — so the overhead bar
    (≤ :data:`PROFILER_TARGET_PCT` %) holds regardless of how hot the
    profiled code is. A separate busy window checks the folded output:
    ``from_folded(folded())`` must reproduce the profiler's own
    aggregation exactly and non-emptily.
    """
    from repro.obs.profiler import SamplingProfiler
    from repro.query.flamegraph import from_folded

    graph, path = _chain_workload(depth)
    plan = build_plan_from_graph(graph, width=Width(32))
    registry = obs.MetricsRegistry("profiler-bench")

    runs: Dict[str, list] = {"off": [], "on": []}
    duty_pct = 0.0
    for _ in range(repeats):
        runs["off"].append(
            _ops_per_s(DeltaPathProbe(plan, cpt=True), path, duration_s)
        )
        profiler = SamplingProfiler(hz=hz, registry=registry)
        with profiler:
            runs["on"].append(
                _ops_per_s(DeltaPathProbe(plan, cpt=True), path, duration_s)
            )
        duty_pct = max(duty_pct, profiler.stats()["duty_pct"])

    best_off = 1e9 / max(runs["off"])
    best_on = 1e9 / max(runs["on"])
    overhead_pct = (best_on / best_off - 1.0) * 100.0 if best_off else 0.0

    # Folded round trip on a window long enough to guarantee samples.
    probe_profiler = SamplingProfiler(hz=max(hz, 200.0), registry=registry)
    with probe_profiler:
        end = time.perf_counter() + 0.25
        while time.perf_counter() < end:
            sum(i * i for i in range(128))
    folded = probe_profiler.folded()
    parsed = from_folded(folded)
    round_trip_ok = bool(parsed) and parsed == probe_profiler.counts()

    return {
        "hz": hz,
        "ns_per_op_off": best_off,
        "ns_per_op_on": best_on,
        "overhead_pct": round(overhead_pct, 2),
        "duty_pct": duty_pct,
        "target_pct": PROFILER_TARGET_PCT,
        "within_target": overhead_pct <= PROFILER_TARGET_PCT,
        "folded_stacks": len(parsed),
        "folded_samples": sum(parsed.values()),
        "round_trip_ok": round_trip_ok,
        "repeats": repeats,
        "duration_s": duration_s,
    }


def trace_layers_demo() -> Dict[str, object]:
    """One traced lifecycle touching every instrumented layer.

    Build a plan (``plan.*``/``encode.*`` spans), apply a class-loading
    delta to it (``plan.apply_delta``), hot-swap a live probe
    (``probe.hot_swap``), walk into the loaded class and ingest the
    snapshot through the service (``service.batch``). Runs with the
    default tracer forced on; the previous enabled state is restored.
    """
    tracer = obs.get_tracer()
    prev = tracer.enabled
    before = len(tracer)
    tracer.enabled = True
    try:
        graph, path = _chain_workload(6)
        plan = build_plan_from_graph(graph, width=Width(32))
        mid = path[2][2]
        g2 = graph.copy()
        edge = g2.add_edge(mid, "plugin.m", "load")
        delta = GraphDelta(added_nodes={"plugin.m": {}}, added_edges=(edge,))
        update = plan.apply_delta(delta)

        probe = DeltaPathProbe(plan, cpt=True)
        probe.begin_execution("main")
        probe.enter_function("main")
        for caller, label, callee in path[:3]:
            probe.before_call(caller, label, callee)
            probe.enter_function(callee)
        probe.hot_swap(update, mid)
        probe.before_call(mid, "load", "plugin.m")
        probe.enter_function("plugin.m")
        snapshot = probe.snapshot("plugin.m")

        with ContextService(update.plan, workers=1, shards=2) as service:
            service.submit_batch(SampleBatch().append(
                "plugin.m", snapshot,
                epoch=service.engine.epoch_of(update.plan),
            ))
            service.flush()
    finally:
        tracer.enabled = prev
    return {
        "events": len(tracer) - before,
        "layers": sorted(tracer.layers()),
        "spans": sorted(tracer.span_names()),
    }


def obs_bench(
    smoke: bool = False,
    *,
    depth: int = DEFAULT_DEPTH,
    iterations: Optional[int] = None,
    repeats: Optional[int] = None,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> Dict[str, object]:
    """Run both studies; returns the JSON-ready result dict.

    The ``registry`` key is the flattened process registry — the same
    dotted namespace (``service.submitted``, ``probe.hot_swap_us`` ...)
    that ``serve-bench`` embeds in BENCH_serve.json.
    """
    if iterations is None:
        iterations = SMOKE_ITERATIONS if smoke else DEFAULT_ITERATIONS
    if repeats is None:
        repeats = SMOKE_REPEATS if smoke else DEFAULT_REPEATS
    overhead = probe_overhead_study(
        depth=depth,
        iterations=iterations,
        repeats=repeats,
        sample_rate=sample_rate,
    )
    profiler = profiler_overhead_study(
        depth=depth,
        repeats=repeats,
        duration_s=0.15 if smoke else 0.4,
    )
    trace = trace_layers_demo()
    return {
        "benchmark": "obs-bench",
        "smoke": smoke,
        "workload": {
            "depth": depth,
            "iterations": iterations,
            "repeats": repeats,
            "sample_rate": sample_rate,
        },
        "overhead": overhead,
        "profiler": profiler,
        "trace": trace,
        "registry": obs.flatten(),
    }


_OVERHEAD_COLUMNS: List[Column] = [
    ("config", "config", str),
    ("ns_per_op", "ns/op", sci),
    ("overhead_pct", "overhead %", sci),
]


def render_obs_bench(result: Dict[str, object]) -> str:
    """Human-readable report of one :func:`obs_bench` run."""
    lines = [
        render_table(
            result["overhead"],
            _OVERHEAD_COLUMNS,
            title=(
                "obs-bench probe hot-loop cost "
                "(op = call + enter + snapshot + exit + return)"
            ),
        ),
        "",
    ]
    profiler = result["profiler"]
    verdict = "within" if profiler["within_target"] else "OVER"
    lines.append(
        f"sampling profiler at {sci(profiler['hz'])} Hz: "
        f"{sci(profiler['overhead_pct'])}% overhead ({verdict} the "
        f"{sci(profiler['target_pct'])}% bar, duty "
        f"{sci(profiler['duty_pct'])}%), folded round-trip "
        f"{'ok' if profiler['round_trip_ok'] else 'FAILED'} over "
        f"{profiler['folded_stacks']} stacks"
    )
    trace = result["trace"]
    lines.append(
        f"trace demo: {trace['events']} events across layers: "
        + ", ".join(trace["layers"])
    )
    lines.append("spans: " + ", ".join(trace["spans"]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Matrix entry point
# ----------------------------------------------------------------------
def run(config) -> Dict[str, object]:
    """One ``bench-matrix`` cell: observability self-cost under
    ``config`` (honours ``quick``; the obs layer has no sharding or
    ingest-path knobs, so other keys are accepted and ignored).

    Gated metrics: the disabled-mode probe overhead (the paper's
    steady-state "leave it on" cost) and the sampling-profiler overhead
    at the default rate.
    """
    quick = bool(config.get("quick", True))
    # The probe loop costs microseconds per run: the full study is cheap
    # enough to keep at full size even in quick mode, and the gate needs
    # the stability. Quick only shortens the profiler's timed windows.
    overhead = probe_overhead_study(
        iterations=DEFAULT_ITERATIONS, repeats=DEFAULT_REPEATS
    )
    profiler = profiler_overhead_study(
        repeats=SMOKE_REPEATS if quick else DEFAULT_REPEATS,
        duration_s=0.15 if quick else 0.4,
    )
    by_config = {row["config"]: row for row in overhead}
    metrics = {
        "probe_disabled_overhead_pct": by_config["disabled"]["overhead_pct"],
        "probe_sampled_overhead_pct": by_config["sampled"]["overhead_pct"],
        "probe_ns_per_op": by_config["disabled"]["ns_per_op"],
        "profiler_overhead_pct": profiler["overhead_pct"],
        "profiler_duty_pct": profiler["duty_pct"],
        "profiler_round_trip_ok": profiler["round_trip_ok"],
    }
    return {
        "target": "obs",
        "metrics": metrics,
        "gated": {
            "probe_overhead_pct": by_config["disabled"]["overhead_pct"],
            "profiler_overhead_pct": profiler["overhead_pct"],
        },
    }
