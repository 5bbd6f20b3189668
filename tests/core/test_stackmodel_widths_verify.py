"""Stack-entry packing, width policies, and the verifier itself."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.stackmodel import EntryKind, StackEntry, pack_entry, unpack_entry
from repro.core.verify import verify_encoding
from repro.core.widths import UNBOUNDED, W8, W32, W64, Width
from repro.errors import EncodingError, RuntimeEncodingError


class TestWidths:
    def test_max_values_match_twos_complement(self):
        assert W8.max_value == 127
        assert W32.max_value == 2 ** 31 - 1
        assert W64.max_value == 2 ** 63 - 1

    def test_paper_64bit_remark(self):
        # "around 1.8e19" (paper, Table 1 caption).
        assert 1.8e19 < W64.max_value < 1.9e19 or W64.max_value < 1.9e19

    def test_fits(self):
        assert W8.fits(127)
        assert not W8.fits(128)
        assert not W8.fits(-1)

    def test_unbounded_fits_anything_nonnegative(self):
        assert UNBOUNDED.fits(10 ** 100)
        assert not UNBOUNDED.fits(-1)

    def test_unbounded_max_is_safe_to_compare_and_format(self):
        # Regression: max_value used to raise OverflowError, which blew
        # up any report that formatted or compared a width generically.
        import math

        assert UNBOUNDED.max_value == math.inf
        assert 10 ** 100 < UNBOUNDED.max_value
        assert "inf" in f"{UNBOUNDED.max_value}"
        assert not UNBOUNDED.is_bounded
        assert W8.is_bounded

    def test_tiny_width_rejected(self):
        with pytest.raises(ValueError):
            Width(1)

    def test_str(self):
        assert str(W32) == "int32"
        assert str(UNBOUNDED) == "unbounded"


class TestPacking:
    """The paper's footnote 2: two bits of the method id carry the kind."""

    METHOD_IDS = {"main": 0, "f": 1, "anchor_fn": 7}

    def test_roundtrip_all_kinds(self):
        names = {v: k for k, v in self.METHOD_IDS.items()}
        for kind in EntryKind:
            entry = StackEntry(kind=kind, node="f", saved_id=42)
            tagged, saved = pack_entry(entry, self.METHOD_IDS)
            back = unpack_entry(tagged, saved, names)
            assert back.kind is kind
            assert back.node == "f"
            assert back.saved_id == 42

    def test_kind_occupies_top_bits(self):
        entry = StackEntry(kind=EntryKind.UCP, node="f", saved_id=0)
        tagged, _ = pack_entry(entry, self.METHOD_IDS, id_bits=30)
        assert tagged >> 30 == int(EntryKind.UCP)
        assert tagged & ((1 << 30) - 1) == 1

    def test_oversized_method_id_rejected(self):
        entry = StackEntry(kind=EntryKind.ANCHOR, node="f", saved_id=0)
        with pytest.raises(RuntimeEncodingError):
            pack_entry(entry, {"f": 1 << 30}, id_bits=30)

    def test_unknown_method_id_rejected(self):
        with pytest.raises(RuntimeEncodingError):
            unpack_entry(999, 0, {})


ENTRY = (
    "from repro.core.stackmodel import EntryKind, StackEntry\n"
    "entry = StackEntry(kind=EntryKind.ANCHOR, node='Main.main', saved_id=3)\n"
)


def run_under_hash_seed(seed, script, stdin=""):
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed),
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    return subprocess.run(
        [sys.executable, "-c", ENTRY + script], input=stdin, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


def test_unpickled_entry_hashes_under_its_own_seed():
    """An entry hashed and pickled under one string-hash seed, loaded
    under another, must be found in a set of equal live entries."""
    pickled = run_under_hash_seed(
        1, "import pickle\nhash(entry)\nprint(pickle.dumps(entry).hex())"
    )
    found = run_under_hash_seed(
        2,
        "import pickle, sys\n"
        "loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "print(loaded == entry, loaded in {entry})",
        stdin=pickled,
    )
    assert found.split() == ["True", "True"]


class TestVerifier:
    def test_detects_collisions(self):
        """Feed the verifier a deliberately broken encoding."""
        from repro.core.deltapath import encode_deltapath
        from repro.graph.callgraph import CallGraph, CallSite

        g = CallGraph(entry="main")
        g.add_edge("main", "l", "s1")
        g.add_edge("main", "r", "s2")
        g.add_edge("l", "sink", "s3")
        g.add_edge("r", "sink", "s4")
        encoding = encode_deltapath(g)
        # Corrupt: make both sink edges share addition value 0.
        encoding.av[CallSite("l", "s3")] = 0
        encoding.av[CallSite("r", "s4")] = 0
        report = verify_encoding(encoding)
        assert not report.ok
        assert any("collision" in f or "mismatch" in f for f in report.failures)

    def test_raise_if_failed(self):
        from repro.core.deltapath import encode_deltapath
        from repro.graph.callgraph import CallGraph, CallSite

        g = CallGraph(entry="main")
        g.add_edge("main", "a", "s1")
        g.add_edge("main", "a", "s2")
        encoding = encode_deltapath(g)
        encoding.av[CallSite("main", "s2")] = 0
        report = verify_encoding(encoding)
        with pytest.raises(EncodingError, match="verification failed"):
            report.raise_if_failed()

    def test_clean_encoding_reports_counts(self):
        from repro.core.deltapath import encode_deltapath
        from repro.workloads.paperfigures import figure4_graph

        report = verify_encoding(encode_deltapath(figure4_graph()))
        assert report.ok
        # sum of NC over nodes: 1+1+1+2+4+3+8 = 20
        assert report.contexts_checked == 20
        assert report.nodes_checked == 7

    def test_max_failures_caps_sweep(self):
        from repro.core.deltapath import encode_deltapath
        from repro.graph.callgraph import CallGraph

        g = CallGraph(entry="main")
        for i in range(6):
            g.add_edge("main", "sink", f"s{i}")
        encoding = encode_deltapath(g)
        for site in list(encoding.av):
            encoding.av[site] = 0  # everything collides
        report = verify_encoding(encoding, max_failures=3)
        assert len(report.failures) == 3
