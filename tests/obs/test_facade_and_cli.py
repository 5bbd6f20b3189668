"""The obs facade, layer instrumentation, and the CLI artifact flags."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core.widths import Width
from repro.graph.callgraph import CallGraph
from repro.runtime.plan import build_plan_from_graph


@pytest.fixture(autouse=True)
def restore_obs_configuration():
    """Tests flip process-wide switches; put them back."""
    rate = obs.probe_sample_rate()
    tracing = obs.tracing_enabled()
    yield
    obs.configure(probe_sample_rate=rate, tracing=tracing)
    obs.get_tracer().clear()


def chain(depth=5):
    graph = CallGraph("main")
    prev = "main"
    for d in range(depth):
        graph.add_edge(prev, f"f{d}", f"c{d}")
        prev = f"f{d}"
    return graph


class TestFacade:
    def test_negative_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            obs.configure(probe_sample_rate=-1)

    def test_span_is_noop_while_tracing_disabled(self):
        obs.configure(tracing=False)
        assert obs.span("x") is obs.NOOP_SPAN

    def test_convenience_instruments_hit_the_default_registry(self):
        counter = obs.counter("facade.test_counter")
        before = counter.value
        counter.inc(2)
        assert obs.get_registry().counter("facade.test_counter").value == (
            before + 2
        )
        assert obs.flatten()["facade.test_counter"] == before + 2


class TestLayerInstrumentation:
    """Each dark layer reports into the shared registry."""

    def test_plan_build_reports_encode_metrics(self):
        registry = obs.get_registry()
        builds = registry.counter("plan.builds").value
        runs = registry.counter("encode.runs").value
        build_plan_from_graph(chain(), width=Width(16))
        assert registry.counter("plan.builds").value == builds + 1
        assert registry.counter("encode.runs").value == runs + 1
        assert registry.histogram("plan.build_us").count > 0
        assert registry.gauge("encode.last_nodes").value == 6

    def test_traced_lifecycle_covers_three_layers(self):
        from repro.bench.obsbench import trace_layers_demo

        obs.get_tracer().clear()
        info = trace_layers_demo()
        # The acceptance bar: spans from encode, the re-encode/hot-swap
        # path, and the service — at least three distinct layers.
        assert {"encode", "probe", "service"} <= set(info["layers"])
        assert len(info["layers"]) >= 3
        assert "probe.hot_swap" in info["spans"]
        assert "service.batch" in info["spans"]
        registry = obs.get_registry()
        assert registry.counter("probe.hot_swaps").value > 0
        assert registry.histogram("probe.hot_swap_us").count > 0

    def test_probe_snapshot_sampling_obeys_the_rate(self):
        from repro.runtime.agent import DeltaPathProbe

        obs.configure(probe_sample_rate=4, tracing=False)
        plan = build_plan_from_graph(chain(), width=Width(16))
        probe = DeltaPathProbe(plan, cpt=True)
        hist = obs.histogram("probe.snapshot_us")
        before_hist = hist.count
        before_count = obs.counter("probe.snapshots").value
        probe.begin_execution("main")
        probe.enter_function("main")
        for _ in range(12):
            probe.snapshot("main")
        probe.end_execution()
        assert hist.count == before_hist + 3  # every 4th of 12
        assert obs.counter("probe.snapshots").value == before_count + 12

    def test_collector_stats_set_gauges(self):
        from repro.runtime.collector import ContextCollector

        class FakeProbe:
            def snapshot(self, node):
                return ((), 0)

        collector = ContextCollector(track_truth=True)
        probe = FakeProbe()
        collector.on_entry("main", 1, probe)
        collector.on_entry("f0", 2, probe)
        collector.stats()
        registry = obs.get_registry()
        assert registry.gauge("collector.total_contexts").value == 2
        assert registry.gauge("collector.unique_truth").value == 2


class TestServiceRegistryNamespace:
    def test_service_stats_include_the_flattened_registry(self):
        from repro.service import ContextService, SampleBatch

        plan = build_plan_from_graph(chain(), width=Width(16))
        with ContextService(plan, workers=1, shards=2) as service:
            node, snapshot = "main", ((), 0)
            service.submit_batch(SampleBatch().append(
                node, snapshot, epoch=service.engine.epoch_of(plan)
            ))
            service.flush()
            stats = service.stats()
        assert stats["submitted"] == 1
        assert stats["registry"]["service.submitted"] == 1
        assert "service.decode_latency_us.p99_us" in stats["registry"]


class TestCliArtifacts:
    def test_metrics_and_trace_out_on_a_subcommand(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        assert main([
            "decode-demo",
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
        ]) == 0
        flat = json.loads(metrics.read_text())
        assert flat["encode.runs"] >= 1
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "encode.anchored" in names

    def test_metrics_out_prom_writes_prometheus_text(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(["list", "--metrics-out", str(path)]) == 0
        text = path.read_text()
        assert text == "" or text.startswith("# TYPE ")

    def test_obs_subcommand_prints_prometheus(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        assert "demo: traced" in out
        assert "# TYPE repro_encode_runs counter" in out

    def test_obs_subcommand_json_no_demo(self, capsys):
        assert main(["obs", "--no-demo", "--format", "json"]) == 0
        out = capsys.readouterr().out
        json.loads(out)

    def test_artifacts_survive_keyboard_interrupt(self, tmp_path, capsys,
                                                  monkeypatch):
        """Ctrl-C mid-run must still leave the metrics/trace artifacts:
        a partial trace of an aborted run is exactly when you want one."""
        import repro.bench.table1 as table1

        def boom(*args, **kwargs):
            obs.counter("cli.test_interrupted").inc()
            raise KeyboardInterrupt

        monkeypatch.setattr(table1, "generate_table1", boom)
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        with pytest.raises(KeyboardInterrupt):
            main([
                "table1",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ])
        flat = json.loads(metrics.read_text())
        assert flat["cli.test_interrupted"] >= 1
        assert "traceEvents" in json.loads(trace.read_text())

    def test_artifacts_survive_a_crashing_subcommand(self, tmp_path,
                                                     capsys, monkeypatch):
        import repro.bench.table1 as table1

        def boom(*args, **kwargs):
            obs.counter("cli.test_crashed").inc()
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(table1, "generate_table1", boom)
        metrics = tmp_path / "metrics.prom"
        with pytest.raises(RuntimeError, match="synthetic failure"):
            main(["table1", "--metrics-out", str(metrics)])
        # Prometheus flavour for the .prom suffix, counter included.
        assert "repro_cli_test_crashed 1" in metrics.read_text()

    def test_obs_bench_smoke_writes_the_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_obs.json"
        assert main([
            "obs-bench", "--smoke", "--iterations", "20", "--repeats", "1",
            "--json", str(path),
        ]) == 0
        result = json.loads(path.read_text())
        assert result["benchmark"] == "obs-bench"
        configs = [row["config"] for row in result["overhead"]]
        assert configs == ["baseline", "disabled", "sampled", "traced"]
        assert len(result["trace"]["layers"]) >= 3
        assert "probe.hot_swaps" in result["registry"]
