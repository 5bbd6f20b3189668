"""Golden digests of every durable file a seeded store writes.

``durable_golden.json`` holds, per seeded store, the SHA-256 of every
segment (``seg-*.dpqs``) and every retired sidecar (``retired-*.dpqr``)
the store's writer and compactor wrote, each taken as soon as it
landed (compaction deletes its inputs, and a later swap prunes the
previous sidecar).

Each store is built by a :class:`SegmentWriter` and a
:class:`Compactor` that share one injected clock, so the windows in
the headers are fixed: eight rounds of seeded ingest over two epochs,
with gap rows and the empty context among them, each round flushed,
and a forced swap after rounds 3, 5 and 7 under a ``max_age_s``
retention cap. The swaps merge already compacted segments, drop spans
and write retired sidecars. A change that makes flushing or
compaction cheaper must leave every digest as it is: the files are
the formats, and every reader and recovery reads them.

Regenerate (only when a file is meant to change) with
``PYTHONPATH=src python tests/query/test_durable_golden.py``; the
test checks that the digests do not depend on the hash seed.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest

from repro.query.compact import CompactionPolicy, Compactor, RetentionPolicy
from repro.query.writer import SegmentWriter
from repro.service.shards import ShardedContextTree

GOLDEN = os.path.join(os.path.dirname(__file__), "durable_golden.json")
FUNCTIONS = ("main", "parse", "lex", "emit", "opt", "gc", "io", "sort")
STORES = 6
ROUNDS = 8
SWAP_AFTER = (3, 5, 7)


def _pool(rng):
    pool = {()}
    while len(pool) < 40:
        depth = rng.randint(1, 6)
        pool.add(tuple(rng.choice(FUNCTIONS) for _ in range(depth)))
    return sorted(pool)


def _hash_new_files(directory, digests):
    for name in sorted(os.listdir(directory)):
        if name.endswith((".dpqs", ".dpqr")) and name not in digests:
            with open(os.path.join(directory, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()


def store_digests(seed, directory):
    """Build seeded store ``seed`` in ``directory``; returns
    ``{file name: sha256}`` for every durable file it wrote."""
    rng = random.Random(seed)
    pool = _pool(rng)
    clock = [1000.0]
    tree = ShardedContextTree(rng.choice((1, 2, 4)))
    writer = SegmentWriter(
        tree, directory, fingerprint=f"fp-{seed}", clock=lambda: clock[0]
    )
    compactor = Compactor(
        writer.store,
        CompactionPolicy(retention=RetentionPolicy(max_age_s=25.0)),
        clock=lambda: clock[0],
    )
    digests = {}
    for round_ in range(1, ROUNDS + 1):
        for _ in range(rng.randint(15, 40)):
            tree.add(
                rng.choice(pool),
                has_gaps=rng.random() < 0.3,
                weight=rng.randint(1, 6),
                epoch=rng.choice((0, 1)),
            )
        tree.add((), has_gaps=round_ % 3 == 0, weight=2, epoch=round_ % 2)
        clock[0] += 10.0
        writer.flush()
        _hash_new_files(directory, digests)
        if round_ in SWAP_AFTER:
            clock[0] += 1.0
            compactor.compact(force=True)
            _hash_new_files(directory, digests)
    return digests


def all_digests():
    out = {}
    for seed in range(STORES):
        with tempfile.TemporaryDirectory(prefix="durable-golden-") as tmp:
            out[f"store-{seed}"] = store_digests(seed, tmp)
    return out


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_swaps_that_retire():
    golden = _golden()
    assert sorted(golden) == [f"store-{seed}" for seed in range(STORES)]
    for digests in golden.values():
        segments = [n for n in digests if n.endswith(".dpqs")]
        retired = [n for n in digests if n.endswith(".dpqr")]
        # Eight flushes and three merged outputs; at least two swaps
        # dropped spans and wrote a sidecar.
        assert len(segments) == ROUNDS + len(SWAP_AFTER)
        assert len(retired) >= 2


@pytest.mark.parametrize("seed", range(STORES))
def test_durable_files_match_the_golden_digests(tmp_path, seed):
    assert store_digests(seed, str(tmp_path)) == _golden()[f"store-{seed}"]


@pytest.mark.parametrize("hash_seed", ("1", "2", "3"))
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == _golden()


if __name__ == "__main__":
    digests = all_digests()
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(digests))
    else:
        with open(GOLDEN, "w") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
