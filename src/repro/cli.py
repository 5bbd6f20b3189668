"""Command-line interface: the paper's tables/figures plus the service.

Usage::

    python -m repro table1 [--benchmarks compress sunflow]
    python -m repro table2 [--operations 120] [--seed 1]
    python -m repro figure8 [--operations 60] [--repeats 3]
    python -m repro collisions [--benchmark sunflow]
    python -m repro widths [--benchmark xml.validation]
    python -m repro opcounts [--benchmarks ...]
    python -m repro scaling [--benchmark crypto.rsa]
    python -m repro incremental [--sizes 64 256 1024]
    python -m repro serve [--workers N] [--port P] [--duration SECONDS]
    python -m repro serve-bench [--quick] [--json BENCH_serve.json]
    python -m repro obs [--format prometheus|json]
    python -m repro obs-bench [--smoke] [--json BENCH_obs.json]
    python -m repro check [--iterations 500] [--seed 0] [--corpus DIR]
    python -m repro chaos [--iterations 25] [--seed 5] [--json PATH]
    python -m repro query --dir segments/ [--window LO:HI] [--flame PATH]
    python -m repro query --dir segments/ --compact [--retain-age SECONDS]
    python -m repro query-bench [--smoke] [--json BENCH_query.json]
    python -m repro resilience-bench [--smoke] [--json PATH]
    python -m repro bench-matrix [--configs all] [--targets all]
        [--quick] [--jobs N] [--baseline BENCH_matrix.json]
        [--json BENCH_matrix.json]
    python -m repro decode-demo
    python -m repro list

``deltapath-repro`` (the installed console script) is the same program.
Every subcommand is enumerated with a one-line description by
``python -m repro --help``; each also has its own ``--help``.

Every subcommand additionally takes ``--metrics-out PATH`` (dump the
:mod:`repro.obs` registry after the run: JSON flatten, or Prometheus
text when PATH ends in ``.prom``) and ``--trace-out PATH`` (enable the
tracer and write a Chrome trace-event JSON loadable in
``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro import obs
from repro.workloads.specjvm import benchmark_names

__all__ = ["main", "build_parser", "COMMANDS"]

#: (name, one-line description) for every subcommand, in display order.
#: The single source of truth: the parser, the ``--help`` epilog and the
#: dispatch table are all built from the registrations below.
COMMANDS: List[Tuple[str, str]] = []


def _command(sub, name: str, description: str, **kwargs):
    """Register a subcommand so ``--help`` enumerates it.

    Every subcommand gets the observability artifact flags: the
    registry and the tracer are process-wide, so any run can export
    what it touched.
    """
    COMMANDS.append((name, description))
    parser = sub.add_parser(
        name, help=description, description=description, **kwargs
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the obs registry after the run (JSON flatten; "
             "Prometheus text when PATH ends in .prom)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="enable tracing and write Chrome trace-event JSON "
             "(chrome://tracing / Perfetto)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    COMMANDS.clear()
    parser = argparse.ArgumentParser(
        prog="deltapath-repro",
        description=(
            "DeltaPath (CGO 2014) reproduction: regenerate the paper's "
            "tables and figures on synthetic SPECjvm-shaped benchmarks, "
            "and benchmark the repro.service collection backend."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p1 = _command(sub, "table1", "static program characteristics (Table 1)")
    p1.add_argument("--benchmarks", nargs="*", default=None)

    p2 = _command(sub, "table2", "dynamic program characteristics (Table 2)")
    p2.add_argument("--benchmarks", nargs="*", default=None)
    p2.add_argument("--operations", type=int, default=120)
    p2.add_argument("--seed", type=int, default=1)

    p8 = _command(sub, "figure8", "normalized execution speeds (Figure 8)")
    p8.add_argument("--benchmarks", nargs="*", default=None)
    p8.add_argument("--operations", type=int, default=60)
    p8.add_argument("--repeats", type=int, default=3)
    p8.add_argument("--seed", type=int, default=1)

    pc = _command(
        sub, "collisions", "PCC hash-collision study (Table 2's gap)"
    )
    pc.add_argument("--benchmark", default="sunflow")
    pc.add_argument("--operations", type=int, default=40)

    pw = _command(
        sub, "widths", "anchor count vs integer width (scalability)"
    )
    pw.add_argument("--benchmark", default="xml.validation")
    pw.add_argument("--widths", nargs="*", type=int, default=None)

    po = _command(
        sub, "opcounts", "instrumentation volume per benchmark operation"
    )
    po.add_argument("--benchmarks", nargs="*", default=None)
    po.add_argument("--operations", type=int, default=20)

    ps = _command(
        sub, "scaling", "statistics stability across operation counts"
    )
    ps.add_argument("--benchmark", default="crypto.rsa")
    ps.add_argument("--scales", nargs="*", type=int, default=None)

    pi = _command(
        sub,
        "incremental",
        "repair cost after a class-loading delta: O(dirty), not O(N)",
    )
    pi.add_argument("--sizes", nargs="*", type=int, default=None)
    pi.add_argument("--width", type=int, default=8)
    pi.add_argument("--repeats", type=int, default=3)

    psv = _command(
        sub,
        "serve",
        "run a live collection service: scrape surface + demo traffic",
    )
    psv.add_argument(
        "--workers", type=int, default=0,
        help="decode worker processes over shared-memory lanes "
             "(0 = the in-process thread pool)",
    )
    psv.add_argument("--shards", type=int, default=8)
    psv.add_argument(
        "--port", type=int, default=0,
        help="scrape-surface port (0 = ephemeral; printed at startup)",
    )
    psv.add_argument(
        "--segment-dir", metavar="DIR", default=None,
        help="persist durable query segments under DIR",
    )
    psv.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: run until Ctrl-C)",
    )
    psv.add_argument(
        "--rate", type=float, default=200.0,
        help="demo samples/second to ingest (0 disables demo traffic)",
    )
    psv.add_argument("--depth", type=int, default=16)
    psv.add_argument("--contexts", type=int, default=64)
    psv.add_argument("--seed", type=int, default=1)

    pv = _command(
        sub,
        "serve-bench",
        "repro.service throughput: cached decode + ingestion under hot swap",
    )
    pv.add_argument(
        "--quick", action="store_true",
        help="small sample counts (CI smoke size)",
    )
    pv.add_argument("--depth", type=int, default=None)
    pv.add_argument("--contexts", type=int, default=None)
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--shards", type=int, default=8)
    pv.add_argument("--workers", type=int, default=2)
    pv.add_argument("--producers", type=int, default=3)
    pv.add_argument("--seed", type=int, default=1)
    pv.add_argument("--top", type=int, default=5)
    pv.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full result as JSON (BENCH_*.json artifact)",
    )

    pob = _command(
        sub,
        "obs",
        "run a traced demo workload and print the metrics registry",
    )
    pob.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="registry output format (default: prometheus)",
    )
    pob.add_argument(
        "--no-demo", action="store_true",
        help="print the registry as-is, without the demo workload",
    )

    pb = _command(
        sub,
        "obs-bench",
        "observability overhead: probe hot loop + trace layer coverage",
    )
    pb.add_argument(
        "--smoke", action="store_true",
        help="tiny iteration counts (CI smoke size)",
    )
    pb.add_argument("--depth", type=int, default=None)
    pb.add_argument("--iterations", type=int, default=None)
    pb.add_argument("--repeats", type=int, default=None)
    pb.add_argument("--sample-rate", type=int, default=64)
    pb.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full result as JSON (BENCH_obs.json artifact)",
    )

    pc = _command(
        sub,
        "check",
        "differential fuzzing: encoders, repair, SIDs, runtime, service",
    )
    pc.add_argument(
        "--iterations", type=int, default=100,
        help="number of seeded fuzz cases to run (default: 100)",
    )
    pc.add_argument(
        "--seed", type=int, default=0,
        help="base seed; case i uses seed+i (default: 0)",
    )
    pc.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without delta-debugging them first",
    )
    pc.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="write shrunken failing cases to DIR as JSON repros",
    )
    pc.add_argument(
        "--replay", metavar="DIR", default=None,
        help="replay the corpus in DIR instead of fuzzing",
    )
    pc.add_argument(
        "--stop-after", type=int, default=None,
        help="stop after this many distinct failures",
    )

    pch = _command(
        sub,
        "chaos",
        "chaos suite: kill workers, storm decodes, crash checkpoints",
    )
    pch.add_argument(
        "--iterations", type=int, default=25,
        help="seeded chaos iterations to run (default: 25)",
    )
    pch.add_argument(
        "--seed", type=int, default=0,
        help="base seed; iteration i derives from seed+i (default: 0)",
    )
    pch.add_argument(
        "--worker-kill-rate", type=float, default=0.02,
        help="probability a worker dies at a drain boundary",
    )
    pch.add_argument(
        "--slow-consumer-rate", type=float, default=0.02,
        help="probability a worker stalls before draining",
    )
    pch.add_argument(
        "--decode-fault-rate", type=float, default=0.05,
        help="probability a decode raises a transient fault",
    )
    pch.add_argument(
        "--checkpoint-crash-rate", type=float, default=0.3,
        help="probability a checkpoint write crashes mid-record",
    )
    pch.add_argument(
        "--compaction-crash-rate", type=float, default=0.25,
        help="probability a segment-compaction swap crashes mid-record",
    )
    pch.add_argument(
        "--observations", type=int, default=40,
        help="samples ingested per iteration (default: 40)",
    )
    pch.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the chaos report as JSON",
    )

    pq = _command(
        sub,
        "query",
        "windowed analytics over a durable segment store",
    )
    pq.add_argument(
        "--dir", metavar="DIR", default=None,
        help="segment directory to query (omit with --demo)",
    )
    pq.add_argument(
        "--demo", action="store_true",
        help="build a small in-temp segment store first and query that",
    )
    pq.add_argument(
        "--top", type=int, default=10,
        help="top-K hottest contexts to print (default: 10)",
    )
    pq.add_argument(
        "--window", metavar="LO:HI", default=None,
        help="restrict to the half-open wall-clock window [LO, HI)",
    )
    pq.add_argument(
        "--rollup", action="store_true",
        help="print per-function rollups instead of contexts",
    )
    pq.add_argument(
        "--leaf", action="store_true",
        help="with --rollup: leaf-only (exclusive/self) counts",
    )
    pq.add_argument(
        "--diff", metavar="LO:HI,LO:HI", default=None,
        help="diff two windows (what appeared/disappeared/changed)",
    )
    pq.add_argument(
        "--through", metavar="FUNC", default=None,
        help="print every context containing FUNC (inverted index)",
    )
    pq.add_argument(
        "--flame", metavar="PATH", default=None,
        help="write the window as folded-stack flame-graph lines",
    )
    pq.add_argument(
        "--compact", action="store_true",
        help="run one generation swap (merge delta segments, apply "
        "any --retain-* caps) instead of querying",
    )
    pq.add_argument(
        "--retain-segments", type=int, default=None, metavar="N",
        help="with --compact: keep at most N segment files",
    )
    pq.add_argument(
        "--retain-bytes", type=int, default=None, metavar="BYTES",
        help="with --compact: cap the store's total size",
    )
    pq.add_argument(
        "--retain-age", type=float, default=None, metavar="SECONDS",
        help="with --compact: drop windows older than SECONDS",
    )
    pq.add_argument(
        "--json", action="store_true",
        help="print the answer as JSON instead of a table",
    )

    pqb = _command(
        sub,
        "query-bench",
        "segment write + windowed top-K throughput (BENCH_query.json)",
    )
    pqb.add_argument(
        "--smoke", action="store_true",
        help="tiny store (CI smoke size)",
    )
    pqb.add_argument("--contexts", type=int, default=None)
    pqb.add_argument("--segments", type=int, default=None)
    pqb.add_argument("--seed", type=int, default=1)
    pqb.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full result as JSON (BENCH_query.json)",
    )

    prb = _command(
        sub,
        "resilience-bench",
        "resilience overhead: supervised vs plain ingest, recovery time",
    )
    prb.add_argument(
        "--smoke", action="store_true",
        help="tiny sample counts (CI smoke size)",
    )
    prb.add_argument("--samples", type=int, default=None)
    prb.add_argument("--seed", type=int, default=1)
    prb.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full result as JSON (BENCH_resilience.json)",
    )

    pm = _command(
        sub,
        "bench-matrix",
        "configs x targets benchmark matrix with a regression gate",
    )
    pm.add_argument(
        "--configs", nargs="*", default=None, metavar="NAME",
        help="configurations to run ('all' or omit for every one)",
    )
    pm.add_argument(
        "--targets", nargs="*", default=None, metavar="NAME",
        help="bench targets to run ('all' or omit for every one)",
    )
    pm.add_argument(
        "--quick", action="store_true",
        help="smoke-size workloads per cell (CI size)",
    )
    pm.add_argument(
        "--jobs", type=int, default=1,
        help="run cells in a thread pool of this size (default: 1; "
             "parallel runs blur absolute throughput numbers)",
    )
    pm.add_argument("--seed", type=int, default=1)
    pm.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="gate against this committed BENCH_matrix.json "
             "(default: the --json path when it already exists)",
    )
    pm.add_argument(
        "--gate-tolerance", type=float, default=None,
        help="relative regression tolerance (default: 0.10 = 10%%)",
    )
    pm.add_argument(
        "--no-gate", action="store_true",
        help="run and write the artifact without diffing a baseline",
    )
    pm.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the merged matrix artifact (BENCH_matrix.json)",
    )

    _command(sub, "list", "list available benchmarks")
    _command(
        sub,
        "decode-demo",
        "encode and decode a context on the paper's Figure 5 graph",
    )

    parser.epilog = "commands:\n" + "\n".join(
        f"  {name:<12} {description}" for name, description in COMMANDS
    )
    return parser


def _validate_benchmarks(names: Optional[List[str]]) -> Optional[List[str]]:
    if names is None or not names:
        return None
    known = set(benchmark_names())
    unknown = [n for n in names if n not in known]
    if unknown:
        sys.exit(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            f"use 'list' to see the suite"
        )
    return names


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        obs.configure(tracing=True)
    if (metrics_out or trace_out) and not obs.probe_sample_rate():
        # Exporting implies the user wants probe.snapshot_us too; any
        # probes built during the run sample every 64th snapshot.
        obs.configure(probe_sample_rate=64)
    try:
        return _dispatch(args)
    finally:
        # Artifacts are written even when the run fails: a partial
        # trace of a crashed run is exactly when you want one.
        if metrics_out:
            _write_metrics(metrics_out)
            print(f"wrote {metrics_out}")
        if trace_out:
            obs.get_tracer().write_chrome(trace_out)
            print(f"wrote {trace_out}")


def _write_metrics(path: str) -> None:
    if path.endswith(".prom"):
        with open(path, "w") as fh:
            fh.write(obs.expose_prometheus())
        return
    with open(path, "w") as fh:
        json.dump(obs.flatten(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        print("\n".join(benchmark_names()))
        return 0

    if args.command == "table1":
        from repro.bench.table1 import generate_table1, render_table1

        rows = generate_table1(_validate_benchmarks(args.benchmarks))
        print(render_table1(rows))
        return 0

    if args.command == "table2":
        from repro.bench.table2 import generate_table2, render_table2

        rows = generate_table2(
            _validate_benchmarks(args.benchmarks),
            operations=args.operations,
            seed=args.seed,
        )
        print(render_table2(rows))
        return 0

    if args.command == "figure8":
        from repro.bench.figure8 import generate_figure8, render_figure8

        rows = generate_figure8(
            _validate_benchmarks(args.benchmarks),
            operations=args.operations,
            repeats=args.repeats,
            seed=args.seed,
        )
        print(render_figure8(rows))
        return 0

    if args.command == "widths":
        from repro.bench.widthsweep import render_width_sweep, width_sweep

        rows = width_sweep(
            args.benchmark,
            widths=tuple(args.widths) if args.widths else (16, 24, 32, 48, 64),
        )
        print(render_width_sweep(rows))
        return 0

    if args.command == "collisions":
        from repro.bench.collisions import collision_study, render_collision_study

        rows = collision_study(args.benchmark, operations=args.operations)
        print(render_collision_study(rows))
        return 0

    if args.command == "opcounts":
        from repro.bench.opcounts import generate_opcounts, render_opcounts

        rows = generate_opcounts(
            _validate_benchmarks(args.benchmarks),
            operations=args.operations,
        )
        print(render_opcounts(rows))
        return 0

    if args.command == "scaling":
        from repro.bench.scaling import render_scaling, scaling_rows

        rows = scaling_rows(
            args.benchmark,
            scales=tuple(args.scales) if args.scales else (15, 30, 60, 120),
        )
        print(render_scaling(rows))
        return 0

    if args.command == "incremental":
        from repro.bench.incremental import (
            DEFAULT_SIZES,
            incremental_rows,
            render_incremental,
        )
        from repro.core.widths import Width

        rows = incremental_rows(
            sizes=tuple(args.sizes) if args.sizes else DEFAULT_SIZES,
            width=Width(args.width),
            repeats=args.repeats,
        )
        print(render_incremental(rows))
        return 0

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "serve-bench":
        from repro.bench.servebench import (
            DEFAULT_DEPTH,
            render_serve_bench,
            serve_bench,
            write_bench_json,
        )

        result = serve_bench(
            quick=args.quick,
            depth=args.depth if args.depth else DEFAULT_DEPTH,
            contexts=args.contexts,
            samples=args.samples,
            shards=args.shards,
            workers=args.workers,
            producers=args.producers,
            seed=args.seed,
            top=args.top,
        )
        print(render_serve_bench(result))
        if args.json:
            write_bench_json(result, args.json)
            print(f"\nwrote {args.json}")
        return 0

    if args.command == "obs":
        if not args.no_demo:
            from repro.bench.obsbench import trace_layers_demo

            info = trace_layers_demo()
            print(
                f"demo: traced {info['events']} events across layers: "
                + ", ".join(info["layers"])
            )
            print()
        if args.format == "json":
            print(json.dumps(obs.flatten(), indent=2, sort_keys=True))
        else:
            print(obs.expose_prometheus(), end="")
        return 0

    if args.command == "obs-bench":
        from repro.bench.obsbench import (
            obs_bench,
            render_obs_bench,
            write_bench_json,
        )

        result = obs_bench(
            smoke=args.smoke,
            **{
                key: value
                for key, value in (
                    ("depth", args.depth),
                    ("iterations", args.iterations),
                    ("repeats", args.repeats),
                    ("sample_rate", args.sample_rate),
                )
                if value is not None
            },
        )
        print(render_obs_bench(result))
        if args.json:
            write_bench_json(result, args.json)
            print(f"\nwrote {args.json}")
        return 0

    if args.command == "check":
        from repro.check.runner import replay_corpus, run_check

        if args.replay:
            report = replay_corpus(args.replay, log=print)
        else:
            report = run_check(
                iterations=args.iterations,
                seed=args.seed,
                shrink=not args.no_shrink,
                corpus_dir=args.corpus,
                stop_after=args.stop_after,
                log=print,
            )
        print(report.summary())
        return 0 if report.ok else 1

    if args.command == "chaos":
        from repro.resilience.chaos import run_chaos

        report = run_chaos(
            iterations=args.iterations,
            seed=args.seed,
            worker_kill_rate=args.worker_kill_rate,
            slow_consumer_rate=args.slow_consumer_rate,
            decode_fault_rate=args.decode_fault_rate,
            checkpoint_crash_rate=args.checkpoint_crash_rate,
            compaction_crash_rate=args.compaction_crash_rate,
            observations=args.observations,
            log=print,
        )
        print(report.summary())
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(report.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0 if report.ok else 1

    if args.command == "query":
        return _run_query(args)

    if args.command == "query-bench":
        from repro.bench.querybench import (
            query_bench,
            render_query_bench,
            write_bench_json,
        )

        result = query_bench(
            smoke=args.smoke,
            contexts=args.contexts,
            segments=args.segments,
            seed=args.seed,
        )
        print(render_query_bench(result))
        if args.json:
            write_bench_json(result, args.json)
            print(f"\nwrote {args.json}")
        return 0

    if args.command == "resilience-bench":
        from repro.bench.resiliencebench import (
            render_resilience_bench,
            resilience_bench,
            write_bench_json,
        )

        result = resilience_bench(
            smoke=args.smoke, samples=args.samples, seed=args.seed
        )
        print(render_resilience_bench(result))
        if args.json:
            write_bench_json(result, args.json)
            print(f"\nwrote {args.json}")
        return 0

    if args.command == "bench-matrix":
        return _run_bench_matrix(args)

    if args.command == "decode-demo":
        _decode_demo()
        return 0

    return 1  # pragma: no cover - argparse enforces commands


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: a live service over a demo workload."""
    import time as _time

    from repro.bench.servebench import _stream, build_workload
    from repro.resilience import ResilienceConfig
    from repro.service import ContextService, SampleBatch, ServiceConfig

    _graph, plan, observations, weights = build_workload(
        depth=args.depth, contexts=args.contexts, seed=args.seed
    )
    service = ContextService(
        plan,
        ServiceConfig(
            worker_processes=max(0, args.workers),
            shards=args.shards,
            http_port=args.port,
            segment_dir=args.segment_dir,
        ),
        resilience=ResilienceConfig(),
    )
    service.start()
    topology = (
        f"{args.workers} decode worker process(es) over shared-memory lanes"
        if args.workers
        else "in-process decode thread pool"
    )
    print(f"serving http://127.0.0.1:{service.http_port} ({topology})")
    print("endpoints: /metrics /health /ready /snapshot /profile")
    if args.duration is None:
        print("Ctrl-C to stop")
    deadline = (
        _time.monotonic() + args.duration
        if args.duration is not None
        else None
    )
    # Demo traffic in quarter-second ticks, so the scrape surface has
    # live numbers to serve and worker restarts are observable.
    tick_s = 0.25
    chunk = max(1, int(args.rate * tick_s)) if args.rate > 0 else 0
    tick = 0
    try:
        while deadline is None or _time.monotonic() < deadline:
            if chunk:
                pairs = _stream(
                    observations, weights, chunk, args.seed + tick
                )
                service.submit_batch(
                    SampleBatch.from_observations(
                        pairs, epoch=service.epoch
                    )
                )
            tick += 1
            _time.sleep(tick_s)
    except KeyboardInterrupt:
        print("\nstopping")
    service.flush(timeout=60)
    if args.segment_dir:
        service.flush_segments()
    acct = service.accounting()
    service.stop()
    print(
        f"ingested {acct['submitted']} demo sample(s), "
        f"{acct['aggregated']} aggregated, {acct['dropped']} dropped"
    )
    return 0


def _run_bench_matrix(args: argparse.Namespace) -> int:
    """The ``bench-matrix`` subcommand: run the cells, gate, write."""
    import os

    from repro.bench.matrix import (
        DEFAULT_TOLERANCE,
        MatrixError,
        diff_against_baseline,
        load_baseline,
        render_matrix,
        run_matrix,
        write_matrix_json,
    )

    try:
        result = run_matrix(
            args.configs,
            args.targets,
            quick=args.quick,
            seed=args.seed,
            jobs=max(1, args.jobs),
            log=print,
        )
    except MatrixError as exc:
        sys.exit(f"bench-matrix: {exc}")

    print()
    print(render_matrix(result))

    # The committed artifact doubles as the baseline: gating against
    # the --json path (when it already exists) is the default, so CI
    # needs no extra flag to compare against what is in the tree.
    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and args.json and os.path.exists(args.json):
        baseline_path = args.json
    if baseline_path is not None and not args.no_gate:
        try:
            baseline = load_baseline(baseline_path)
        except MatrixError as exc:
            sys.exit(f"bench-matrix: {exc}")

    status = 0
    if baseline is not None:
        tolerance = (
            args.gate_tolerance
            if args.gate_tolerance is not None
            else DEFAULT_TOLERANCE
        )
        report = diff_against_baseline(
            result["gated"], baseline["gated"], tolerance=tolerance
        )
        print()
        print(f"gate vs {baseline_path} (commit "
              f"{baseline.get('commit', 'unknown')}):")
        print(report.summary())
        if not report.ok:
            status = 1

    if args.json:
        write_matrix_json(result, args.json, baseline)
        print(f"\nwrote {args.json}")
    return status


def _parse_window(spec: str) -> Tuple[float, float]:
    try:
        lo, hi = spec.split(":")
        return (float(lo), float(hi))
    except ValueError:
        sys.exit(f"bad window {spec!r}; expected LO:HI (e.g. 0:60)")


def _run_query(args: argparse.Namespace) -> int:
    """The ``query`` subcommand: windowed analytics over segments."""
    import os
    import tempfile

    from repro.errors import QueryError
    from repro.query.engine import QueryEngine
    from repro.query.manifest import SegmentStore
    from repro.query.segment import SegmentState

    demo_tmp = None
    directory = args.dir
    if args.demo:
        demo_tmp = tempfile.TemporaryDirectory(prefix="repro-query-demo-")
        directory = demo_tmp.name
        store = SegmentStore(directory)
        store.append(SegmentState(
            t_lo=0.0, t_hi=30.0, fingerprint="demo", rows=(
                (("main", "parse", "intern"), 40, 0, 0),
                (("main", "parse", "lex"), 25, 0, 0),
                (("main", "emit"), 10, 2, 0),
            ),
        ))
        store.append(SegmentState(
            t_lo=30.0, t_hi=60.0, fingerprint="demo", rows=(
                (("main", "parse", "intern"), 12, 0, 1),
                (("main", "opt", "inline"), 33, 0, 1),
            ),
        ))
        print(f"(demo store: 2 segments in {directory})\n")
    elif not directory:
        sys.exit("query: pass --dir DIR (or --demo)")
    elif not os.path.isdir(directory):
        sys.exit(f"query: segment directory {directory!r} does not exist")
    elif not any(
        name.endswith((".dpqs", ".dpqm")) for name in os.listdir(directory)
    ):
        sys.exit(
            f"query: {directory!r} contains no segments "
            f"(nothing was ever flushed here)"
        )

    try:
        if args.compact:
            return _run_compact(args, directory)
        engine = QueryEngine(directory).refresh()
        window = _parse_window(args.window) if args.window else None

        if args.diff:
            try:
                spec_a, spec_b = args.diff.split(",")
            except ValueError:
                sys.exit(
                    f"bad diff {args.diff!r}; expected LO:HI,LO:HI"
                )
            diff = engine.diff(_parse_window(spec_a), _parse_window(spec_b))
            if args.json:
                print(json.dumps(diff.to_json(), indent=2, sort_keys=True))
            else:
                for label, bucket in (
                    ("appeared", diff.appeared),
                    ("disappeared", diff.disappeared),
                ):
                    for path, count in sorted(bucket.items()):
                        print(f"{label:<12} {';'.join(path)} ({count})")
                for path, (a, b) in sorted(diff.changed.items()):
                    print(f"{'changed':<12} {';'.join(path)} ({a} -> {b})")
                if diff.is_empty:
                    print("no differences between the windows")
        elif args.rollup:
            totals = engine.function_totals(
                leaf_only=args.leaf, window=window
            )
            if args.json:
                print(json.dumps(totals, indent=2, sort_keys=True))
            else:
                for name, count in sorted(
                    totals.items(), key=lambda kv: (-kv[1], kv[0])
                ):
                    print(f"{count:>10}  {name}")
        elif args.through:
            paths = engine.paths_through(args.through, window=window)
            if args.json:
                print(json.dumps(
                    {";".join(p): c for p, c in paths.items()},
                    indent=2, sort_keys=True,
                ))
            else:
                for path, count in sorted(
                    paths.items(), key=lambda kv: (-kv[1], kv[0])
                ):
                    print(f"{count:>10}  {';'.join(path)}")
        else:
            ranked = engine.top_contexts(args.top, window=window)
            if args.json:
                print(json.dumps(
                    [[count, list(path)] for count, path in ranked],
                    indent=2,
                ))
            else:
                span = engine.span()
                where = (
                    f"window [{window[0]}, {window[1]})" if window
                    else f"full span {span}" if span else "empty store"
                )
                print(f"top {args.top} contexts, {where}:")
                for count, path in ranked:
                    print(f"{count:>10}  {';'.join(path)}")

        if args.flame:
            folded = engine.flamegraph(window=window)
            with open(args.flame, "w") as fh:
                fh.write(folded)
            print(
                f"wrote {len(folded.splitlines())} folded stacks "
                f"to {args.flame}"
            )
        return 0
    except QueryError as exc:
        sys.exit(f"query: {exc}")
    finally:
        if demo_tmp is not None:
            demo_tmp.cleanup()


def _run_compact(args: argparse.Namespace, directory: str) -> int:
    """``query --compact``: one generation swap over the store."""
    from repro.errors import QueryError
    from repro.query.compact import (
        CompactionPolicy,
        Compactor,
        RetentionPolicy,
    )
    from repro.query.locks import LockHeldError
    from repro.query.manifest import SegmentStore

    try:
        policy = CompactionPolicy(
            retention=RetentionPolicy(
                max_segments=args.retain_segments,
                max_bytes=args.retain_bytes,
                max_age_s=args.retain_age,
            )
        )
    except QueryError as exc:
        sys.exit(f"query: {exc}")
    compactor = Compactor(SegmentStore(directory), policy)
    try:
        recovered = compactor.recover()
        report = compactor.compact(force=True)
    except LockHeldError as exc:
        sys.exit(f"query: {exc}")
    except QueryError as exc:
        sys.exit(f"query: compaction failed: {exc}")
    if args.json:
        payload = {"recovered": recovered, "report": report}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if recovered:
        print(f"recovered a half-done swap first: {recovered}")
    if report is None:
        print("nothing to compact (store already a single generation)")
        return 0
    print(
        f"compacted generation {report['from_generation']} -> "
        f"{report['to_generation']}: merged {len(report['inputs'])} "
        f"segment(s) into seg-{report['output_seq']:08d} "
        f"({report['spans']} span(s), {report['rows']} row(s))"
    )
    if report["dropped_spans"]:
        print(
            f"retention dropped {report['dropped_spans']} span(s), "
            f"{report['dropped_rows']} row(s), "
            f"{report['dropped_samples']} sample(s) "
            f"(totals preserved in the retired sidecar)"
        )
    print(
        f"deleted {report['deleted']} superseded file(s), "
        f"{report['deferred']} deferred to pinned readers"
    )
    return 0


def _decode_demo() -> None:
    """The paper's Figure 5 walkthrough, end to end, on stdout."""
    from repro.core.anchored import encode_anchored
    from repro.core.widths import UNBOUNDED
    from repro.graph.callgraph import CallEdge
    from repro.workloads.paperfigures import figure5_anchors, figure5_graph

    graph = figure5_graph()
    encoding = encode_anchored(
        graph, width=UNBOUNDED, initial_anchors=figure5_anchors()
    )
    print("Figure 5 graph with anchors:", ", ".join(encoding.anchors))
    context = (
        CallEdge("A", "C", "a2"),
        CallEdge("C", "F", "c2"),
        CallEdge("F", "G", "f1"),
    )
    stack, current = encoding.encode_context(context)
    print(f"context A->C->F->G encodes to stack={list(stack)} id={current}")
    decoded = encoding.decode_context("G", stack, current)
    print(
        "decoded back:",
        " -> ".join([decoded[0].caller] + [e.callee for e in decoded]),
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
