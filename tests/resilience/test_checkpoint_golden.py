"""Golden checkpoint files: the ``dpck`` bytes are pinned.

``golden/v2.dpck`` was written by ``ContextService.checkpoint`` from the
tree :func:`golden_service` builds: shared prefixes, the empty context,
one context under two epochs, gap rows, a zero-count key, an interned
but never counted context, and names whose string order differs from
their intern order (``"Zeta"`` is interned after ``"alpha"``). The store
seals a block every four trie nodes, so writing it reads sealed,
compressed blocks. Any change to the writer that moves a byte fails
here; ``golden/v1.dpck`` pins that version-1 files still load.
"""

import hashlib
import os
import shutil

from repro.resilience.checkpoint import CheckpointStore
from repro.runtime.plan import build_plan_from_graph
from repro.service import ContextService, ServiceConfig
from repro.service.shards import ShardedContextTree
from repro.service.store import ContextStore
from repro.workloads.paperfigures import figure5_graph

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
V2_SHA256 = "5afa25405df97fbe7eb471b7330c4308a0ff6553ab448884fff40e70aa21bd2a"
V1_SHA256 = "365b30cb0c4540b0d1bdc1412f6774f69920db712b1290ff3c1d4b6be531f2a3"

#: (path, has_gaps, weight, epoch) in the order they are added.
ADDS = [
    (("A",), False, 3, 0),
    (("A", "B", "D"), False, 2, 0),
    (("A", "B", "D"), True, 1, 0),
    (("A", "C", "D", "E"), False, 4, 0),
    (("A", "C", "D", "E"), False, 5, 1),
    ((), False, 2, 0),
    (("A", "alpha"), False, 1, 1),
    (("A", "Zeta", "G"), True, 2, 1),
    (("A", "C", "F"), False, 0, 0),
    (("A", "C", "G"), False, 6, 0),
]

#: What ``load_file`` returns for ``golden/v2.dpck``.
V2_ROWS = (
    ((), 2, 0, 0),
    (("A",), 3, 0, 0),
    (("A", "B", "D"), 3, 1, 0),
    (("A", "C", "D", "E"), 4, 0, 0),
    (("A", "C", "D", "E"), 5, 0, 1),
    (("A", "C", "F"), 0, 0, 0),
    (("A", "C", "G"), 6, 0, 0),
    (("A", "Zeta", "G"), 2, 2, 1),
    (("A", "alpha"), 1, 0, 1),
)

#: What ``load_file`` returns for ``golden/v1.dpck`` (header epoch 4).
V1_ROWS = (
    ((), 1, 0, 4),
    (("main",), 2, 0, 4),
    (("main", "parse"), 3, 0, 4),
    (("main", "parse", "lex"), 2, 1, 4),
)


def golden_service():
    """A figure-5 service holding the golden tree (never started)."""
    service = ContextService(
        build_plan_from_graph(figure5_graph()), ServiceConfig(shards=4)
    )
    service.store = ContextStore(block_size=4)
    service.tree = ShardedContextTree(4, store=service.store)
    for path, has_gaps, weight, epoch in ADDS:
        service.tree.add(path, has_gaps=has_gaps, weight=weight, epoch=epoch)
    service.store.intern(("A", "B", "orphan"))  # interned, never counted
    return service


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_writer_reproduces_the_v2_golden_bytes(tmp_path):
    written = golden_service().checkpoint(str(tmp_path))
    assert sha256_of(os.path.join(GOLDEN, "v2.dpck")) == V2_SHA256
    assert sha256_of(written) == V2_SHA256


def test_v2_golden_loads_the_expected_rows(tmp_path):
    state = CheckpointStore(str(tmp_path)).load_file(
        os.path.join(GOLDEN, "v2.dpck")
    )
    assert state is not None
    assert state.epoch == 0
    assert state.rows == V2_ROWS
    assert state.total_samples == 26


def test_v2_golden_recovers_every_counted_row(tmp_path):
    shutil.copy(
        os.path.join(GOLDEN, "v2.dpck"),
        os.path.join(str(tmp_path), "ckpt-00000001.dpck"),
    )
    fresh = ContextService(
        build_plan_from_graph(figure5_graph()), ServiceConfig(shards=3)
    )
    summary = fresh.recover(str(tmp_path))
    assert summary["rows"] == len(V2_ROWS)
    assert summary["samples"] == 26
    # A row with count 0 and no gaps restores nothing.
    assert fresh.tree.rows() == [row for row in V2_ROWS if row[1]]
    assert fresh.tree.gap_total() == 3


def test_v1_golden_still_loads(tmp_path):
    path = os.path.join(GOLDEN, "v1.dpck")
    assert sha256_of(path) == V1_SHA256
    state = CheckpointStore(str(tmp_path)).load_file(path)
    assert state is not None
    assert state.epoch == 4
    assert state.fingerprint == "fp-v1"
    assert state.rows == V1_ROWS
