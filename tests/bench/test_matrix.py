"""The benchmark matrix: configs, gating semantics, history, CLI."""

import json
import os

import pytest

from repro.bench.matrix import (
    CONFIGS,
    DEFAULT_TOLERANCE,
    GATED_METRICS,
    HISTORY_LIMIT,
    TARGETS,
    MatrixError,
    diff_against_baseline,
    load_baseline,
    merge_history,
    render_matrix,
    resolve_configs,
    resolve_targets,
    run_matrix,
    write_matrix_json,
)
from repro.cli import main


def stub_target(name, gated):
    def run(config):
        return {
            "target": name,
            "metrics": dict(gated, extra=1.0),
            "gated": dict(gated),
        }

    return run


@pytest.fixture
def stubbed(monkeypatch):
    """Replace every real target with instant stubs."""
    for name in list(TARGETS):
        monkeypatch.setitem(
            TARGETS, name, stub_target(name, {"ingest_per_s": 100.0})
        )
    yield


class TestConfigsAndTargets:
    def test_default_config_set_covers_the_required_axes(self):
        names = {config.name for config in CONFIGS}
        assert len(CONFIGS) >= 4
        assert {
            "default", "uncached", "resilient", "multiproc-2", "compact-on",
        } <= names
        # Each non-default config flips exactly one axis vs default.
        default = resolve_configs(["default"])[0]
        for config in CONFIGS:
            if config.name == "default":
                continue
            flipped = [
                knob
                for knob in (
                    "cached", "shards", "workers", "resilience",
                    "compression", "worker_processes", "compact",
                )
                if getattr(config, knob) != getattr(default, knob)
            ]
            assert len(flipped) == 1, config.name

    def test_resolve_all_and_subsets(self):
        assert resolve_configs(None) == list(CONFIGS)
        assert resolve_configs(["all"]) == list(CONFIGS)
        assert [c.name for c in resolve_configs(["resilient"])] == [
            "resilient"
        ]
        assert resolve_targets(None) == list(TARGETS)
        assert resolve_targets(["query"]) == ["query"]

    def test_unknown_names_are_rejected(self):
        with pytest.raises(MatrixError, match="unknown config"):
            resolve_configs(["nope"])
        with pytest.raises(MatrixError, match="unknown target"):
            resolve_targets(["nope"])

    def test_knobs_carry_quick_and_seed(self):
        knobs = CONFIGS[0].knobs(quick=True, seed=7)
        assert knobs["quick"] is True and knobs["seed"] == 7
        assert knobs["name"] == "default"


class TestRunMatrix:
    def test_cells_and_flat_gated_keys(self, stubbed):
        result = run_matrix(["default", "resilient"], ["serve", "query"])
        assert set(result["cells"]) == {
            "default/serve", "default/query",
            "resilient/serve", "resilient/query",
        }
        assert result["gated"]["default/serve/ingest_per_s"] == 100.0
        assert len(result["gated"]) == 4
        for cell in result["cells"].values():
            assert cell["elapsed_s"] >= 0
            assert "metrics" in cell and "gated" in cell
            # The host's usable cores travel with every cell, so a
            # scaling number is read against the cores that made it.
            assert cell["cores"] == len(os.sched_getaffinity(0))

    def test_parallel_jobs_produce_the_same_cells(self, stubbed):
        serial = run_matrix(["default"], ["serve", "query"], jobs=1)
        parallel = run_matrix(["default"], ["serve", "query"], jobs=4)
        assert set(serial["cells"]) == set(parallel["cells"])
        assert serial["gated"] == parallel["gated"]

    def test_render_mentions_every_cell(self, stubbed):
        result = run_matrix(["default"], ["serve"])
        text = render_matrix(result)
        assert "default/serve" in text
        assert "ingest_per_s=100" in text


class TestGate:
    def test_higher_better_regression_and_improvement(self):
        baseline = {"a/serve/ingest_per_s": 100.0}
        drop = diff_against_baseline(
            {"a/serve/ingest_per_s": 80.0}, baseline
        )
        assert not drop.ok and "dropped" in drop.regressions[0]
        gain = diff_against_baseline(
            {"a/serve/ingest_per_s": 150.0}, baseline
        )
        assert gain.ok and gain.improvements
        flat = diff_against_baseline(
            {"a/serve/ingest_per_s": 95.0}, baseline
        )
        assert flat.ok and not flat.improvements

    def test_lower_better_gates_on_growth(self):
        baseline = {"a/query/topk_ms_p95": 10.0}
        grow = diff_against_baseline({"a/query/topk_ms_p95": 20.0}, baseline)
        assert not grow.ok and "grew" in grow.regressions[0]
        shrink = diff_against_baseline(
            {"a/query/topk_ms_p95": 5.0}, baseline
        )
        assert shrink.ok and shrink.improvements

    def test_abs_floor_suppresses_noise_on_pct_metrics(self):
        spec = GATED_METRICS["probe_overhead_pct"]
        assert not spec.higher_better and spec.abs_floor > 0
        # A swing from -1% to +3% is a huge relative change but only
        # 4 points of noise: must not gate.
        noisy = diff_against_baseline(
            {"a/obs/probe_overhead_pct": 3.0},
            {"a/obs/probe_overhead_pct": -1.0},
        )
        assert noisy.ok
        # A genuine blow-up past the floor still gates.
        real = diff_against_baseline(
            {"a/obs/probe_overhead_pct": 60.0},
            {"a/obs/probe_overhead_pct": 2.0},
        )
        assert not real.ok

    def test_tolerance_is_respected(self):
        baseline = {"a/serve/ingest_per_s": 100.0}
        assert diff_against_baseline(
            {"a/serve/ingest_per_s": 60.0}, baseline, tolerance=0.5
        ).ok
        assert not diff_against_baseline(
            {"a/serve/ingest_per_s": 40.0}, baseline, tolerance=0.5
        ).ok

    def test_added_and_missing_keys_inform_but_never_fail(self):
        report = diff_against_baseline(
            {"new/serve/ingest_per_s": 1.0},
            {"old/serve/ingest_per_s": 1.0},
        )
        assert report.ok
        assert report.added and report.missing
        assert "gate ok" in report.summary()

    def test_decode_gates_on_each_rate_not_the_ratio(self):
        for metric in ("decode_per_s", "decode_uncached_per_s"):
            assert GATED_METRICS[metric].higher_better
        assert "decode_speedup_x" not in GATED_METRICS
        # A faster uncached decoder shrinks the ratio; neither rate
        # dropped, so the gate holds.
        report = diff_against_baseline(
            {"a/serve/decode_per_s": 400.0,
             "a/serve/decode_uncached_per_s": 40.0},
            {"a/serve/decode_per_s": 400.0,
             "a/serve/decode_uncached_per_s": 8.0},
        )
        assert report.ok and report.improvements

    def test_unknown_metric_defaults_to_higher_better(self):
        report = diff_against_baseline(
            {"a/serve/mystery": 50.0}, {"a/serve/mystery": 100.0}
        )
        assert not report.ok


class TestArtifactAndHistory:
    def test_write_stamps_and_carries_history(self, stubbed, tmp_path):
        path = tmp_path / "BENCH_matrix.json"
        first = run_matrix(["default"], ["serve"])
        write_matrix_json(first, str(path))
        saved = json.loads(path.read_text())
        assert saved["schema_version"] >= 2
        assert "commit" in saved and "timestamp" in saved
        assert saved["history"] == []

        second = run_matrix(["default"], ["serve"])
        write_matrix_json(second, str(path), load_baseline(str(path)))
        saved = json.loads(path.read_text())
        assert len(saved["history"]) == 1
        entry = saved["history"][0]
        assert entry["gated"] == {"default/serve/ingest_per_s": 100.0}
        assert "commit" in entry and "timestamp" in entry

    def test_history_is_capped(self):
        baseline = {
            "gated": {"k": 1.0},
            "history": [{"gated": {"k": float(i)}} for i in range(50)],
        }
        merged = merge_history({"gated": {"k": 2.0}}, baseline)
        assert len(merged["history"]) == HISTORY_LIMIT
        # The newest entry is the baseline's own snapshot.
        assert merged["history"][-1]["gated"] == {"k": 1.0}

    def test_load_baseline_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(MatrixError, match="cannot load"):
            load_baseline(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(MatrixError, match="not a bench-matrix"):
            load_baseline(str(bad))


class TestCli:
    def test_cli_runs_writes_and_gates_clean(self, stubbed, tmp_path,
                                             capsys):
        path = tmp_path / "BENCH_matrix.json"
        assert main([
            "bench-matrix", "--configs", "default", "--targets", "serve",
            "--quick", "--json", str(path),
        ]) == 0
        assert json.loads(path.read_text())["cells"]
        # Second run gates against the freshly written file.
        assert main([
            "bench-matrix", "--configs", "default", "--targets", "serve",
            "--quick", "--json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "gate ok" in out

    def test_cli_fails_on_a_regression(self, stubbed, tmp_path, capsys,
                                       monkeypatch):
        path = tmp_path / "BENCH_matrix.json"
        assert main([
            "bench-matrix", "--configs", "default", "--targets", "serve",
            "--quick", "--json", str(path),
        ]) == 0
        monkeypatch.setitem(
            TARGETS, "serve",
            stub_target("serve", {"ingest_per_s": 10.0}),
        )
        assert main([
            "bench-matrix", "--configs", "default", "--targets", "serve",
            "--quick", "--json", str(path),
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_relaxed_tolerance_and_no_gate(self, stubbed, tmp_path,
                                               monkeypatch):
        path = tmp_path / "BENCH_matrix.json"
        assert main([
            "bench-matrix", "--configs", "default", "--targets", "serve",
            "--quick", "--json", str(path),
        ]) == 0
        monkeypatch.setitem(
            TARGETS, "serve",
            stub_target("serve", {"ingest_per_s": 95.0}),
        )
        assert main([
            "bench-matrix", "--configs", "default", "--targets", "serve",
            "--quick", "--json", str(path), "--gate-tolerance", "0.2",
        ]) == 0
        monkeypatch.setitem(
            TARGETS, "serve",
            stub_target("serve", {"ingest_per_s": 1.0}),
        )
        assert main([
            "bench-matrix", "--configs", "default", "--targets", "serve",
            "--quick", "--json", str(path), "--no-gate",
        ]) == 0

    def test_cli_rejects_unknown_config(self, stubbed):
        with pytest.raises(SystemExit):
            main(["bench-matrix", "--configs", "bogus"])

    def test_default_tolerance_is_ten_percent(self):
        assert DEFAULT_TOLERANCE == pytest.approx(0.10)
