"""The sample-journey benchmark: one command, every metric, one gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
``--seconds`` sizes the run: a workload does ``round(S * rounds_per_second)``
rounds, calibrated so that a run takes about S seconds on a 2-core host,
and the same seed and size always do the same work. ``--trace 0`` prints
the end-to-end metrics of an untraced run; ``--trace 1`` runs the journey
untraced and then traced, prints the per-layer metrics and the stage
table, and writes the spans as a Chrome trace under ``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1
when the correctness gate fails, 2 when the checkout has no library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"

def _import_library():
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def host_record(seed: int, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    record = {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": "src-sha256:" + digest.hexdigest()[:16],
        "seed": seed,
        "workload": workload.name,
    }
    return record


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def journey_detail(result, setup_times) -> dict:
    """Exact percentiles (with percentile and count) and the raw,
    unscaled figures of one untraced journey, for the run record."""
    from percentiles import describe, ladder, median_or

    freshness = sorted(result.freshness_ms)
    return {
        "freshness": describe(freshness),
        "freshness_ladder": ladder(freshness),
        "queries": describe(sorted(v for kind in result.query_ms.values() for v in kind)),
        "raw_samples_per_s": result.samples / result.journey_wall,
        "raw_setup_s": median_or([t["setup_s"] for t in setup_times]),
        "rounds": {
            "wall_s": result.round_walls,
            "host_factor": result.round_factors,
            "samples": result.round_samples,
        },
    }


def end_to_end(result, setup_times, detail) -> dict:
    """The end-to-end metrics; times are scaled to the nominal host
    speed (see ``hostspeed``), the raw figures are in ``detail``."""
    from percentiles import median_or

    attempted = result.samples + result.queries
    failed = result.failed_samples + result.failed_queries
    return {
        "samples_per_s": result.samples / result.scaled_wall,
        "freshness_p50_ms": detail["freshness"]["p50"],
        "query_p50_ms": detail["queries"]["p50"],
        "app_slowdown_x": result.app_wall / result.native_wall,
        "disk_bytes_per_sample": result.disk_bytes / max(1, result.samples),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": median_or([t["scaled_setup_s"] for t in setup_times]),
        "ok_frac": (attempted - failed) / attempted,
    }


# ----------------------------------------------------------------------
# Traced run: per-layer metrics and the stage table
# ----------------------------------------------------------------------
#: Stage-table rows in journey order: (layer, clock name).
STAGES = (
    ("runtime", "runtime"),
    ("service.batch", "service.batch"),
    ("service.ingest", "service.ingest"),
    ("service.engine", "service.engine"),
    ("service.shards", "service.shards"),
    ("service.store", "service.store"),
    ("service.ingest", "service.ingest.drain"),
    ("query.writer", "query.writer"),
    ("resilience.checkpoint", "resilience.checkpoint"),
    ("query.compact", "query.compact"),
    ("query.engine", "query.engine.refresh"),
    ("query.engine", "query.engine.topk"),
    ("query.engine", "query.engine.diff"),
    ("query.engine", "query.engine.rollup"),
)


def _scale_sampled_sink(clock, samples: int) -> None:
    """The sink is timed on one call in N; scale ``service.batch`` up to
    every call and take the extra out of the runtime span that holds
    the unsampled calls."""
    batch = clock.stats.get("service.batch")
    runtime = clock.stats.get("runtime")
    if batch is None or not batch.calls or runtime is None:
        return
    factor = samples / batch.calls
    extra_busy = batch.busy * (factor - 1.0)
    extra_wall = batch.wall * (factor - 1.0)
    batch.busy += extra_busy
    batch.wall += extra_wall
    runtime.busy = max(0.0, runtime.busy - extra_busy)
    runtime.wall = max(0.0, runtime.wall - extra_wall)


def per_layer(setup, setup_times, untraced, traced, clock, passes) -> dict:
    from percentiles import median_or

    stats = clock.stats

    def busy(name):
        s = stats.get(name)
        return s.busy if s is not None else 0.0

    def wait_ms(name):
        s = stats.get(name)
        return s.wait * 1e3 if s is not None else 0.0

    def p50_ms(name):
        s = stats.get(name)
        return median_or(s.walls) * 1e3 if s is not None else 0.0

    def items(name):
        s = stats.get(name)
        return s.items if s is not None else 0

    layer = traced.layer
    samples = max(1, traced.samples)
    keys = items("service.engine")
    seg_bytes = layer["segment_bytes"]
    topk_queries = len(traced.query_ms["topk"])
    covered = clock.busy_total()
    return {
        "analysis.callgraph_s": median_or([t["callgraph_s"] for t in setup_times]),
        "core.plan_s": median_or([t["plan_s"] for t in setup_times]),
        "core.anchors": len(setup.plan.encoding.anchors),
        "runtime.native_s": passes["native_s"],
        "runtime.agent_ns_per_call":
            (passes["probe_s"] - passes["native_s"]) / max(1, passes["calls"]) * 1e9,
        "runtime.collector_ns_per_sample":
            (passes["collector_s"] - passes["probe_s"]) / max(1, passes["samples"]) * 1e9,
        "runtime.calls": passes["calls"],
        "runtime.samples": passes["samples"],
        "runtime.ucp_detections": traced.ucp_detections,
        "service.batch.sink_ns_per_sample": busy("service.batch") / samples * 1e9,
        "service.batch.groups_per_sample": layer["groups"] / samples,
        "service.ingest.submit_wait_ms": wait_ms("service.ingest"),
        "service.ingest.drain_wait_ms": wait_ms("service.ingest.drain"),
        "service.ingest.queue_peak": layer["queue_peak"],
        "service.engine.decode_busy_s": busy("service.engine"),
        "service.engine.decode_us_per_key": busy("service.engine") / max(1, keys) * 1e6,
        "service.engine.keys": keys,
        "service.engine.context_hit_rate": layer["context_hit_rate"],
        "service.engine.piece_hit_rate": layer["piece_hit_rate"],
        "service.shards.add_busy_s": busy("service.shards"),
        "service.store.intern_busy_s": busy("service.store"),
        "service.store.contexts": layer["store_contexts"],
        "service.store.bytes_per_context": layer["store_bytes_per_context"],
        "resilience.checkpoint_busy_s": busy("resilience.checkpoint"),
        "resilience.checkpoint_bytes": layer.get("checkpoint_bytes", 0),
        "query.writer.flush_busy_s": busy("query.writer"),
        "query.writer.flush_ms_p50": p50_ms("query.writer"),
        "query.writer.rows_written": layer["rows_written"],
        "query.segment.bytes_written": seg_bytes,
        "query.write_amp": (seg_bytes + layer["compact_bytes"]) / max(1, seg_bytes),
        "query.compact.busy_s": busy("query.compact"),
        "query.compact.runs": layer["compact_runs"],
        "query.compact.bytes_rewritten": layer["compact_bytes"],
        "query.compact.segments_live": layer["segments_live"],
        "query.engine.refresh_busy_s": busy("query.engine.refresh"),
        "query.engine.refresh_ms_p50": p50_ms("query.engine.refresh"),
        "query.engine.topk_busy_s": busy("query.engine.topk"),
        "query.engine.segments_per_query":
            layer.get("topk_segments", 0) / max(1, topk_queries),
        "query.engine.diff_ms_p50": p50_ms("query.engine.diff"),
        "query.engine.rollup_ms_p50": p50_ms("query.engine.rollup"),
        "trace.coverage": covered / traced.journey_wall,
        "trace.overhead_frac": traced.scaled_wall / untraced.scaled_wall - 1.0,
    }


def stage_table(workload, seed, clock, traced, untraced) -> str:
    wall = traced.journey_wall
    lines = [
        f"stage table: {workload.name} seed {seed}, {traced.rounds} rounds, "
        f"traced wall {wall:.3f} s (untraced {untraced.journey_wall:.3f} s)",
        f"{'layer':<22} {'entry point':<24} {'calls':>7} {'busy_s':>9} "
        f"{'wait_s':>9} {'share':>7}",
    ]
    covered = 0.0
    for layer, name in STAGES:
        s = clock.stats.get(name)
        if s is None:
            continue
        covered += s.busy
        lines.append(
            f"{layer:<22} {name:<24} {s.calls:>7} {s.busy:>9.3f} "
            f"{s.wait:>9.3f} {s.busy / wall:>7.1%}"
        )
    lines.append(f"{'trace.coverage':<47} {covered:>16.3f} {'':>9} {covered / wall:>7.1%}")
    lines.append(
        f"trace.overhead_frac {traced.scaled_wall / untraced.scaled_wall - 1.0:+.4f} "
        "(host-speed scaled walls)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def _write_record(name: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    import journey
    from layers import LayerClock
    from repro.obs import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload not in journey.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(journey.WORKLOADS)}")
    workload = journey.WORKLOADS[args.workload]
    rounds = workload.rounds(args.seconds)
    host = host_record(args.seed, workload)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        (setup, service, root), setup_times = journey.timed_setups(
            workload, str(workdir)
        )
        untraced = journey.run_journey(
            workload, setup, service, root, args.seed, rounds
        )
        detail = journey_detail(untraced, setup_times)
        record = {"host": host, "rounds": rounds, "setup": setup_times, "detail": detail,
                  "journey_wall_s": untraced.journey_wall, "gate_s": untraced.gate_s,
                  "counts": untraced.counts, "problems": untraced.problems}
        if not args.trace:
            metrics = end_to_end(untraced, setup_times, detail)
            attempted = untraced.samples + untraced.queries
            failed = untraced.failed_samples + untraced.failed_queries
            record["metrics"] = metrics
            correct = untraced.correct and failed == 0
        else:
            tracer = Tracer(enabled=True, max_events=1_000_000)
            clock = LayerClock(tracer)
            root_b = str(workdir / "traced")
            service_b = journey.start_service(workload, setup.plan, root_b)
            traced = journey.run_journey(
                workload, setup, service_b, root_b, args.seed, rounds, clock=clock
            )
            _scale_sampled_sink(clock, traced.samples)
            passes = journey.runtime_passes(setup, args.seed, traced.ops)
            metrics = per_layer(setup, setup_times, untraced, traced, clock, passes)
            # Tails of the untraced pass: steered by GC pauses and the
            # slowest rounds, too erratic to bound, reported unbounded.
            metrics["journey.freshness_tail_ms"] = detail["freshness"]["tail"]
            metrics["journey.query_tail_ms"] = detail["queries"]["tail"]
            print(stage_table(workload, args.seed, clock, traced, untraced))
            OUT.mkdir(exist_ok=True)
            tracer.write_chrome(str(OUT / f"trace-{tag}.json"))
            attempted = untraced.samples + untraced.queries + traced.samples + traced.queries
            failed = (untraced.failed_samples + untraced.failed_queries
                      + traced.failed_samples + traced.failed_queries)
            correct = untraced.correct and traced.correct and failed == 0
            record.update(metrics=metrics, traced_counts=traced.counts,
                          traced_problems=traced.problems)
        _write_record(f"result-{tag}.json", record)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"host": host, "rounds": rounds, "counts": record["counts"],
                      "journey_wall_s": record["journey_wall_s"], "gate_s": record["gate_s"],
                      "detail": record.get("detail")}))
    for problem in record["problems"] + record.get("traced_problems", []):
        print(f"GATE: {problem}", file=sys.stderr)
    _emit(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
