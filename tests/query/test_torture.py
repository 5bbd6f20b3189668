"""Concurrent-reader torture: a QueryEngine in another process loops
canonical queries while this process compacts, appends, and retires
segments under it. The reader must see zero errors and byte-identical
answers for the pinned historical window throughout."""

import json
import multiprocessing
import os
import time

import pytest

from repro.query.compact import CompactionPolicy, Compactor
from repro.query.manifest import SegmentStore
from repro.query.segment import SegmentState

#: The window the reader audits: covers only the pre-built history, so
#: its answers are invariant under appends AND compactions (retention
#: is never armed here — nothing inside it is ever dropped).
AUDIT_WINDOW = (0.0, 40.0)


def _history_state(i, rows_per=4):
    rows = tuple(
        (("main", f"f{j % 3}", f"ctx{(i + j) % 5}"), i + j + 1,
         j % 2, i % 2)
        for j in range(rows_per)
    )
    return SegmentState(
        t_lo=10.0 * i, t_hi=10.0 * i + 10.0,
        fingerprint=f"fp{i}", rows=rows,
    )


def _reader_main(directory, out_path, stop_path):
    """Runs in the child: refresh + query in a tight loop, recording
    every distinct serialized answer and any exception."""
    import traceback

    from repro.query.engine import QueryEngine

    result = {"ok": False, "iterations": 0, "distinct": []}
    try:
        store = SegmentStore(directory)
        blobs = set()
        with QueryEngine(store, pin_lease_s=30.0) as engine:
            iterations = 0
            while iterations < 2000 and not os.path.exists(stop_path):
                engine.refresh()
                answer = {
                    "topk": engine.top_contexts(
                        50, window=AUDIT_WINDOW
                    ),
                    "epoch0": engine.top_contexts(
                        50, window=AUDIT_WINDOW, epoch=0
                    ),
                    "pinned": engine.pinned_generation is not None,
                }
                blobs.add(json.dumps(answer, sort_keys=True))
                iterations += 1
        result = {
            "ok": True,
            "iterations": iterations,
            "distinct": sorted(blobs),
        }
    except BaseException:
        result["error"] = traceback.format_exc()
    with open(out_path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(out_path + ".tmp", out_path)


def test_reader_process_survives_compaction_storm(tmp_path):
    directory = str(tmp_path / "segments")
    store = SegmentStore(directory)
    for i in range(4):
        store.append(_history_state(i).encode())

    out_path = str(tmp_path / "reader.json")
    stop_path = str(tmp_path / "stop")
    ctx = multiprocessing.get_context("fork")
    reader = ctx.Process(
        target=_reader_main, args=(directory, out_path, stop_path)
    )
    reader.start()
    try:
        # The storm: append fresh segments and compact the directory
        # out from under the reader, over and over.
        compactor = Compactor(store, CompactionPolicy(min_inputs=2))
        for cycle in range(8):
            compactor.compact(now=1000.0 + cycle, force=True)
            store.append(_history_state(4 + cycle).encode())
            time.sleep(0.02)
    finally:
        open(stop_path, "w").close()
        reader.join(timeout=30.0)
        if reader.is_alive():  # pragma: no cover - hang diagnostics
            reader.terminate()
            reader.join()
            pytest.fail("reader process hung")

    assert os.path.exists(out_path), "reader never reported"
    result = json.load(open(out_path))
    assert result.get("ok"), result.get("error")
    assert result["iterations"] > 0
    # Byte-identity: every audited answer the reader ever computed is
    # the same one — generation swaps were invisible.
    assert len(result["distinct"]) == 1, result["distinct"]
    baseline = json.loads(result["distinct"][0])
    assert baseline["pinned"] is True

    # The reader's pin is gone (released on close), so a final sweep
    # deletes whatever its snapshot deferred.
    compactor.compact(now=2000.0, force=True)
    leftover = Compactor(store)
    leftover.compact(now=2001.0)
    store.refresh()
    for tomb in store.tombstones:
        from repro.query.segment import segment_name
        assert not os.path.exists(
            os.path.join(directory, segment_name(int(tomb["seq"])))
        )
