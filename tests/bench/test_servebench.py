"""serve-bench: the workload builder, the studies, and the CLI wiring."""

import json

import pytest

from repro.bench.servebench import (
    batch_ingest_study,
    build_workload,
    decode_study,
    ingest_study,
    lane_chain,
    multiproc_ingest_study,
    render_serve_bench,
    serve_bench,
    store_study,
    write_bench_json,
    _cct_paths,
    _stream,
)
from repro.cli import COMMANDS, build_parser, main
from repro.service.engine import DecodeEngine


TINY = dict(depth=8, lanes=2, contexts=24, samples=400, seed=7)


@pytest.fixture(scope="module")
def result():
    return serve_bench(
        depth=TINY["depth"],
        contexts=TINY["contexts"],
        samples=TINY["samples"],
        shards=4,
        workers=2,
        producers=2,
        seed=TINY["seed"],
        top=3,
    )


class TestWorkload:
    def test_lane_chain_shape(self):
        g = lane_chain(depth=5, lanes=3)
        assert g.entry == "main"
        # depth hops, `lanes` parallel edges per hop.
        assert len(list(g.edges)) == 5 * 3

    def test_build_workload_decodes_round_trip(self):
        graph, plan, observations, weights = build_workload(
            depth=6, lanes=2, contexts=10, seed=3
        )
        assert len(observations) == 10
        assert len(weights) == 10
        assert weights == sorted(weights, reverse=True)  # Zipf ranks
        engine = DecodeEngine(plan)
        for node, snapshot in observations:
            path, has_gaps, _ = engine.decode_path(node, snapshot)
            assert path[0] == "main" and path[-1] == node
            assert not has_gaps
        # Distinct contexts stay distinct through the encoding. Lanes
        # share nodes and differ only by call-site label, so uniqueness
        # lives in the decoded edge sequence, not the node path.
        edge_seqs = set()
        for node, snapshot in observations:
            decoded = engine.decode(node, *snapshot)
            edge_seqs.add(tuple(
                (e.caller, e.label, e.callee)
                for seg in decoded.segments for e in seg.edges
            ))
        assert len(edge_seqs) == 10

    def test_stream_is_deterministic_and_hot(self):
        _, _, observations, weights = build_workload(
            depth=6, lanes=2, contexts=10, seed=3
        )
        s1 = _stream(observations, weights, 200, seed=5)
        s2 = _stream(observations, weights, 200, seed=5)
        assert s1 == s2
        assert len(s1) == 200


class TestStudies:
    def test_cached_beats_uncached(self):
        _, plan, observations, weights = build_workload(
            depth=TINY["depth"], lanes=2, contexts=TINY["contexts"],
            seed=TINY["seed"],
        )
        stream = _stream(observations, weights, TINY["samples"],
                         TINY["seed"])
        uncached = decode_study(plan, stream, piece_cache=0, context_cache=0)
        cached = decode_study(plan, stream)
        assert uncached["samples"] == cached["samples"] == TINY["samples"]
        assert uncached["context_hit_rate"] == 0.0
        assert cached["context_hit_rate"] > 0.5  # hot stream repeats
        assert cached["per_s"] > uncached["per_s"]

    def test_ingest_study_lossless_across_swap(self):
        graph, plan, observations, weights = build_workload(
            depth=TINY["depth"], lanes=2, contexts=TINY["contexts"],
            seed=TINY["seed"],
        )
        stream = _stream(observations, weights, TINY["samples"],
                         TINY["seed"])
        out = ingest_study(
            graph, plan, stream,
            depth=TINY["depth"], lanes=2, producers=2, workers=2,
            shards=4, seed=TINY["seed"],
        )
        assert out["lost"] == 0
        assert out["mixed_epoch"] == 0
        assert out["decode_errors"] == 0
        assert out["dropped"] == 0
        assert out["hot_swaps"] == 1
        assert out["plugin_samples"] > 0  # post-swap contexts aggregated
        assert out["samples"] == TINY["samples"] + out["post_swap_samples"]

    def test_batch_ingest_study_agrees_and_reports(self):
        _, plan, observations, weights = build_workload(
            depth=TINY["depth"], lanes=2, contexts=TINY["contexts"],
            seed=TINY["seed"],
        )
        stream = _stream(observations, weights, TINY["samples"],
                         TINY["seed"])
        out = batch_ingest_study(
            plan, stream, workers=2, shards=4, batch_max=64
        )
        assert out["batch_max"] == 64
        assert out["batch"]["samples"] == TINY["samples"]
        assert out["batch"]["dropped"] == 0
        assert out["batch"]["per_s"] > 0
        # The batch service must agree exactly with a per-sample decode.
        assert out["accounting_match"]

    def test_cct_paths_are_prefix_closed(self):
        paths = _cct_paths(200, seed=3)
        assert len(paths) == 200
        universe = set(paths)
        for path in paths:
            for cut in range(1, len(path)):
                assert path[:cut] in universe

    def test_multiproc_ingest_study_is_lossless_per_fleet(self):
        graph, plan, observations, weights = build_workload(
            depth=TINY["depth"], lanes=TINY["lanes"],
            contexts=TINY["contexts"], seed=TINY["seed"],
        )
        out = multiproc_ingest_study(
            plan, observations,
            samples=256, worker_counts=(1, 2), batch_max=64,
        )
        assert out["cores"] >= 1
        assert out["batch_max"] == 64
        assert set(out["counts"]) == {"1", "2"}
        for entry in out["counts"].values():
            # Every fleet width must ingest the full stream losslessly.
            assert entry["samples"] == 256
            assert entry["aggregated"] == 256
            assert entry["per_s"] > 0
        assert out["scaling_x"]["1"] == pytest.approx(1.0)
        assert out["scaling_x"]["2"] > 0

    def test_store_study_round_trips_and_measures(self):
        out = store_study(contexts=300, seed=2)
        assert out["contexts"] == 300
        for mode in ("zlib", "none"):
            assert out[mode]["round_trip_ok"]
            assert out[mode]["bytes_per_context"] > 0
        assert out["zlib"]["bytes"] <= out["none"]["bytes"]
        assert out["tuple_bytes_per_context"] > 0
        assert out["reduction_vs_tuples"] == pytest.approx(
            out["tuple_bytes_per_context"]
            / out["zlib"]["bytes_per_context"]
        )


class TestServeBench:
    def test_matrix_cell_gates_each_decode_rate(self, monkeypatch):
        from repro.bench import servebench

        monkeypatch.setattr(servebench, "QUICK_SAMPLES", 300)
        monkeypatch.setattr(servebench, "QUICK_CONTEXTS", 12)
        cell = servebench.run({"quick": True, "seed": 3})
        metrics, gated = cell["metrics"], cell["gated"]
        assert set(gated) == {
            "ingest_per_s", "decode_per_s", "decode_uncached_per_s",
            "store_bytes_per_context",
        }
        assert gated["decode_per_s"] == metrics["decode_per_s"] > 0
        assert gated["decode_uncached_per_s"] == \
            metrics["decode_uncached_per_s"] > 0
        # The ratio is still reported, ungated.
        assert metrics["decode_speedup_x"] == pytest.approx(
            metrics["decode_per_s"] / metrics["decode_uncached_per_s"]
        )
        assert metrics["ingest_lost"] == 0

    def test_result_shape_and_acceptance(self, result):
        assert result["benchmark"] == "serve-bench"
        assert result["workload"]["contexts"] == TINY["contexts"]
        decode = result["decode"]
        assert set(decode) == {"uncached", "cached", "speedup"}
        # The headline ratio; the full run clears 10x, tiny params less.
        assert decode["speedup"] > 1.0
        assert result["ingest"]["lost"] == 0
        assert result["ingest"]["mixed_epoch"] == 0
        assert len(result["top_contexts"]) == 3
        counts = [e["count"] for e in result["top_contexts"]]
        assert counts == sorted(counts, reverse=True)
        batch = result["batch_ingest"]
        assert batch["accounting_match"]
        assert result["batch_ingest_per_s"] == batch["batch"]["per_s"]
        store = result["store"]
        assert result["bytes_per_context"] == \
            store["zlib"]["bytes_per_context"]
        multiproc = result["multiproc"]
        assert multiproc["cores"] >= 1
        for entry in multiproc["counts"].values():
            assert entry["aggregated"] == entry["samples"]
        assert result["multiproc_scaling_x"] == \
            multiproc["scaling_x"]["4"]

    def test_render(self, result):
        out = render_serve_bench(result)
        assert "speedup cached/uncached" in out
        assert "lost 0" in out
        assert "batch ingestion" in out
        assert "match the per-sample decode" in out
        assert "process-fleet batch ingest" in out
        assert "context store footprint" in out
        assert "hottest contexts:" in out

    def test_json_round_trips_with_a_stamp(self, result, tmp_path):
        target = tmp_path / "BENCH_serve.json"
        write_bench_json(result, str(target))
        saved = json.loads(target.read_text())
        # The artifact is the result plus the self-description stamp.
        for key, value in result.items():
            assert saved[key] == value
        assert saved["schema_version"] >= 2
        assert saved["commit"] and saved["timestamp"]


class TestCli:
    def test_help_enumerates_every_command(self):
        parser = build_parser()
        text = parser.format_help()
        assert len(COMMANDS) >= 11
        names = [name for name, _ in COMMANDS]
        assert len(names) == len(set(names))
        for name, description in COMMANDS:
            assert name in text
            assert description in text
        assert "serve-bench" in names

    def test_serve_bench_command(self, capsys, tmp_path):
        target = tmp_path / "BENCH_serve.json"
        code = main([
            "serve-bench", "--depth", "8", "--contexts", "24",
            "--samples", "400", "--shards", "2", "--workers", "1",
            "--producers", "2", "--seed", "7", "--top", "2",
            "--json", str(target),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve-bench decode throughput" in out
        assert f"wrote {target}" in out
        data = json.loads(target.read_text())
        assert data["ingest"]["lost"] == 0

    def test_serve_command_runs_a_bounded_demo(self, capsys):
        code = main([
            "serve", "--workers", "1", "--duration", "0.6",
            "--rate", "50", "--depth", "8", "--contexts", "16",
            "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving http://127.0.0.1:" in out
        assert "decode worker process(es)" in out
        assert "0 dropped" in out
