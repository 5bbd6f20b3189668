"""One corruption fuzz over every durable format's golden files.

Each golden file — the checkpoints (``dpck``), segments (``dpqs``),
manifests (``dpqm``), the compaction journal (``dpqj``), retired totals
(``dpqr``) and the DPSB sample batch — loads as written. Truncated at
every byte, or with any single bit flipped, it must be rejected: the
loader returns None (DPSB raises :class:`ServiceError`), and never
raises anything else. Every loader also rejects every other format's
golden file.

The framing rules these formats share are tested once, against
:mod:`repro.durable`, in ``tests/test_durable.py``.
"""

import os

import pytest

from repro.errors import ServiceError
from repro.query.compact import JOURNAL_NAME, load_journal, load_retired
from repro.query.manifest import MANIFEST_NAME, load_manifest_info
from repro.query.segment import parse_segment
from repro.resilience.checkpoint import CheckpointStore
from repro.service import SampleBatch

TESTS = os.path.dirname(__file__)

#: golden file -> its format
GOLDEN = {
    os.path.join("resilience", "golden", "v2.dpck"): "checkpoint",
    os.path.join("resilience", "golden", "v1.dpck"): "checkpoint",
    os.path.join("query", "golden", "v2.dpqs"): "segment",
    os.path.join("query", "golden", "v1.dpqs"): "segment",
    os.path.join("query", "golden", "v2.dpqm"): "manifest",
    os.path.join("query", "golden", "v1.dpqm"): "manifest",
    os.path.join("query", "golden", "v1.dpqj"): "journal",
    os.path.join("query", "golden", "v1.dpqr"): "retired",
    os.path.join("service", "golden", "v1.dpsb"): "dpsb",
}


class Loaders:
    """Each format's loader, fed bytes through a file where it reads one."""

    def __init__(self, directory):
        self.directory = directory
        self.checkpoints = CheckpointStore(directory)

    def _put(self, name, data):
        path = os.path.join(self.directory, name)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def accepts(self, fmt, data):
        """True when ``fmt``'s loader accepts ``data``, False when it
        rejects it the way the format promises."""
        if fmt == "checkpoint":
            path = self._put("ckpt-00000001.dpck", data)
            return self.checkpoints.load_file(path) is not None
        if fmt == "segment":
            return parse_segment("seg-00000001.dpqs", 1, data) is not None
        if fmt == "manifest":
            self._put(MANIFEST_NAME, data)
            return load_manifest_info(self.directory) is not None
        if fmt == "journal":
            self._put(JOURNAL_NAME, data)
            return load_journal(self.directory) is not None
        if fmt == "retired":
            return load_retired(self._put("retired-00000001.dpqr", data)) is not None
        try:
            SampleBatch.from_bytes(data)
        except ServiceError:
            return False
        return True


def golden_bytes(name):
    with open(os.path.join(TESTS, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_truncation_and_bit_flip_is_rejected(tmp_path, name):
    fmt, data = GOLDEN[name], golden_bytes(name)
    loaders = Loaders(str(tmp_path))
    assert loaders.accepts(fmt, data)
    torn = [cut for cut in range(len(data)) if loaders.accepts(fmt, data[:cut])]
    assert torn == []
    flipped = []
    for at in range(len(data)):
        for bit in range(8):
            mutant = bytearray(data)
            mutant[at] ^= 1 << bit
            if loaders.accepts(fmt, bytes(mutant)):
                flipped.append((at, bit))
    assert flipped == []


@pytest.mark.parametrize("fmt", sorted(set(GOLDEN.values())))
def test_every_loader_rejects_every_other_format(tmp_path, fmt):
    loaders = Loaders(str(tmp_path))
    accepted = [
        name for name, other in sorted(GOLDEN.items())
        if other != fmt and loaders.accepts(fmt, golden_bytes(name))
    ]
    assert accepted == []
