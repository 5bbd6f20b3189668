"""The ``query`` subcommand's guard rails and ``--compact`` mode."""

import json

import pytest

from repro.cli import main
from repro.query.manifest import SegmentStore
from repro.query.segment import SegmentState


def seed_store(directory, n=4):
    store = SegmentStore(str(directory))
    for i in range(n):
        store.append(SegmentState(
            t_lo=10.0 * i, t_hi=10.0 * i + 10.0, fingerprint=f"fp{i}",
            rows=((("main", f"f{i}", "ctx"), i + 2, 0, 0),),
        ).encode())
    return store


class TestMissingDirectory:
    """Satellite: pointing the CLI at nothing must exit with one clean
    line, not a traceback."""

    def test_missing_dir_is_one_clean_error(self, tmp_path, capsys):
        missing = str(tmp_path / "never-created")
        with pytest.raises(SystemExit) as exc:
            main(["query", "--dir", missing])
        message = str(exc.value)
        assert message == (
            f"query: segment directory {missing!r} does not exist"
        )
        assert "\n" not in message
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_dir_is_one_clean_error(self, tmp_path):
        empty = tmp_path / "segments"
        empty.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["query", "--dir", str(empty)])
        message = str(exc.value)
        assert "contains no segments" in message
        assert "\n" not in message

    def test_no_dir_and_no_demo_errors(self):
        with pytest.raises(SystemExit) as exc:
            main(["query"])
        assert "--dir" in str(exc.value)


class TestQueryHappyPath:
    def test_query_over_seeded_store(self, tmp_path, capsys):
        seed_store(tmp_path)
        assert main(["query", "--dir", str(tmp_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "ctx" in out

    def test_negative_top_is_one_clean_error(self, tmp_path, capsys):
        seed_store(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["query", "--dir", str(tmp_path), "--top", "-3"])
        message = str(exc.value)
        assert message.startswith("query: ") and "k >= 0" in message
        assert "\n" not in message
        assert "contexts" not in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["nan:100", "0:nan"])
    def test_nan_window_is_one_clean_error(self, tmp_path, capsys, spec):
        seed_store(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["query", "--dir", str(tmp_path), "--window", spec])
        message = str(exc.value)
        assert message.startswith("query: ") and "NaN" in message
        assert "\n" not in message
        assert "contexts" not in capsys.readouterr().out

    def test_inverted_window_is_one_clean_error(self, tmp_path):
        seed_store(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["query", "--dir", str(tmp_path), "--window", "50:10"])
        assert str(exc.value).startswith("query: ")

    def test_demo_mode_needs_no_dir(self, capsys):
        assert main(["query", "--demo"]) == 0
        assert capsys.readouterr().out


class TestCompactSubcommand:
    def test_compact_merges_and_reports(self, tmp_path, capsys):
        store = seed_store(tmp_path)
        assert main(["query", "--dir", str(tmp_path), "--compact"]) == 0
        out = capsys.readouterr().out
        assert "compacted generation 0 -> 1" in out
        assert len(store.refresh()) == 1

    def test_compact_json_report(self, tmp_path, capsys):
        seed_store(tmp_path)
        assert main([
            "query", "--dir", str(tmp_path), "--compact", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["to_generation"] == 1
        assert payload["report"]["spans"] == 4

    def test_compact_with_retention_drops_and_says_so(
        self, tmp_path, capsys
    ):
        import time

        store = seed_store(tmp_path)
        # every window ends long ago relative to wall-now
        age = time.time() - 35.0
        assert main([
            "query", "--dir", str(tmp_path), "--compact",
            "--retain-age", str(age),
        ]) == 0
        out = capsys.readouterr().out
        assert "retention dropped" in out
        store.refresh()
        assert store.retired_name is not None

    def test_bad_retention_cap_is_clean_error(self, tmp_path):
        seed_store(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([
                "query", "--dir", str(tmp_path), "--compact",
                "--retain-segments", "0",
            ])
        assert "max_segments" in str(exc.value)
