"""The repro.api facade: uniform encode(), PlanConfig/Encoder, shims.

Also holds the regression tests for the empty / entry-only / unreachable
decode edge cases fixed alongside the facade work.
"""

import warnings

import pytest

import repro
from repro.api import (
    ALGORITHMS,
    Encoder,
    Encoding,
    PlanConfig,
    encode,
)
from repro.core.anchored import AnchoredEncoding, encode_anchored
from repro.core.deltapath import DeltaPathEncoding, encode_deltapath
from repro.core.pcce import PCCEEncoding, encode_pcce
from repro.core.widths import UNBOUNDED, W8, W16, Width
from repro.errors import (
    DecodingError,
    EncodingOverflowError,
    UnreachableCallerError,
)
from repro.graph.callgraph import CallEdge, CallGraph
from repro.runtime.plan import build_plan, build_plan_from_graph
from repro.workloads.paperprograms import figure6_program


def diamond():
    g = CallGraph("main")
    g.add_edge("main", "a", "s1")
    g.add_edge("main", "b", "s2")
    g.add_edge("a", "c", "s3")
    g.add_edge("b", "c", "s4")
    return g


class TestEncodeDispatch:
    def test_each_algorithm_yields_its_encoding(self):
        g = diamond()
        assert isinstance(encode(g, "pcce"), PCCEEncoding)
        assert isinstance(encode(g, "deltapath"), DeltaPathEncoding)
        assert isinstance(encode(g, "anchored"), AnchoredEncoding)
        assert set(ALGORITHMS) == {"pcce", "deltapath", "anchored"}

    def test_default_algorithm_is_deltapath(self):
        assert isinstance(encode(diamond()), DeltaPathEncoding)

    def test_unknown_algorithm_is_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            encode(diamond(), "balanced-trees")

    def test_anchored_only_options_are_rejected_elsewhere(self):
        with pytest.raises(TypeError, match="initial_anchors"):
            encode(diamond(), "pcce", initial_anchors=["a"])
        with pytest.raises(TypeError):
            encode(diamond(), "deltapath", max_restarts=3)

    def test_anchored_options_are_forwarded(self):
        enc = encode(diamond(), "anchored", width=W16,
                     initial_anchors=["c"])
        assert "c" in enc.anchors


class TestEncodingProtocol:
    def test_all_three_satisfy_the_protocol(self):
        g = diamond()
        for algorithm in ALGORITHMS:
            enc = encode(g, algorithm)
            assert isinstance(enc, Encoding), algorithm
            site = CallEdge("main", "a", "s1").site
            assert isinstance(enc.site_increment(site), int)
            assert enc.max_id >= 1  # c has two contexts

    def test_decode_is_uniform_across_algorithms(self):
        g = diamond()
        for algorithm in ALGORITHMS:
            enc = encode(g, algorithm)
            contexts = {
                tuple(enc.decode("c", value))
                for value in range(enc.max_id + 1)
            }
            expected = {
                (CallEdge("main", "a", "s1"), CallEdge("a", "c", "s3")),
                (CallEdge("main", "b", "s2"), CallEdge("b", "c", "s4")),
            }
            assert contexts == expected, algorithm

    def test_uniform_overflow_errors(self):
        g = CallGraph("main")
        for i in range(20):
            g.add_edge("main", "mid", f"l{i}")
        g.add_edge("mid", "sink", "s")
        for algorithm in ("pcce", "deltapath"):
            with pytest.raises(EncodingOverflowError):
                encode(g, algorithm, width=Width(4))

    def test_uniform_strict_reachability_errors(self):
        g = diamond()
        g.add_edge("orphan", "c", "s5")  # orphan is entry-unreachable
        for algorithm in ALGORITHMS:
            encode(g, algorithm)  # lenient by default
            with pytest.raises(UnreachableCallerError):
                encode(g, algorithm, strict_reachability=True)


class TestDeprecatedPositionalShims:
    """The positional-option shims are gone: options are keyword-only."""

    def test_positional_options_raise_type_error(self):
        from repro.analysis.callgraph_builder import Policy

        g = diamond()
        with pytest.raises(TypeError):
            encode_deltapath(g, lambda e: 0.0)
        with pytest.raises(TypeError):
            encode_anchored(g, W16)
        with pytest.raises(TypeError):
            build_plan_from_graph(g, W16)
        with pytest.raises(TypeError):
            build_plan(figure6_program(), Policy.ZERO_CFA)

    def test_keyword_calls_do_not_warn(self):
        g = diamond()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            encode_pcce(g, width=W16)
            encode_deltapath(g, width=W16)
            encode_anchored(g, width=W16)
            build_plan_from_graph(g, width=W16)


class TestEncoderFacade:
    def test_config_or_keywords_not_both(self):
        Encoder()
        Encoder(PlanConfig(width=W16))
        Encoder(width=W16)
        with pytest.raises(TypeError):
            Encoder(PlanConfig(), width=W16)

    def test_config_width_reaches_the_encoding(self):
        enc = Encoder(width=W8)
        out = enc.encode(diamond())
        assert isinstance(out, AnchoredEncoding)
        assert out.width == W8

    def test_plan_probe_and_cpt_flag(self):
        program = figure6_program()
        enc = Encoder(PlanConfig(cpt=False))
        plan = enc.plan(program)
        probe = enc.probe(plan)
        assert probe.cpt is False
        probe2 = Encoder().probe(plan)
        assert probe2.cpt is True

    def test_plan_from_graph(self):
        plan = Encoder(width=W16).plan_from_graph(diamond())
        assert plan.encoding.width == W16

    def test_repair_roundtrip(self):
        """Encoder.repair = delta -> apply_delta -> hot_swap, one call."""
        program = figure6_program()
        enc = Encoder()
        plan = enc.plan(program)
        probe = enc.probe(plan)
        probe.begin_execution("Main.main")
        probe.enter_function("Main.main")
        delta = enc.delta_for_loaded_classes(program, plan, ["XImpl"])
        assert not delta.is_empty
        update = enc.repair(probe, delta, "Main.main")
        assert probe.plan is update.plan
        assert "XImpl.m" in update.plan.instrumented_nodes

    def test_package_root_reexports(self):
        for name in ("Encoder", "PlanConfig", "Encoding", "encode",
                     "GraphDelta", "PlanUpdate", "reencode",
                     "delta_for_loaded_classes", "diff_graphs"):
            assert hasattr(repro, name), name
            assert name in repro.__all__


class TestDecodeEdgeCases:
    def test_entry_only_graph_decodes_empty(self):
        g = CallGraph("main")
        for algorithm in ALGORITHMS:
            enc = encode(g, algorithm)
            assert enc.decode("main", 0) == []
            assert enc.max_id == 0

    def test_entry_value_zero_decodes_empty_everywhere(self):
        g = diamond()
        for algorithm in ALGORITHMS:
            assert encode(g, algorithm).decode("main", 0) == []

    def test_unknown_start_node_raises_decoding_error(self):
        g = diamond()
        for algorithm in ALGORITHMS:
            enc = encode(g, algorithm)
            with pytest.raises(DecodingError):
                enc.decode("ghost", 0)

    def test_unreachable_caller_tie_break_regression(self):
        """An entry-unreachable caller whose edge carries the same
        residual value as a reachable one must not hijack the decode."""
        g = CallGraph("main")
        g.add_edge("main", "t", "x")
        g.add_edge("iso", "t", "i")  # iso unreachable: NC/ICC == 0
        g.add_edge("main", "a", "m")
        g.add_edge("a", "t", "at")
        for algorithm in ("pcce", "deltapath"):
            enc = encode(g, algorithm)
            decoded = enc.decode("t", 1)
            assert [e.caller for e in decoded] == ["main", "a"], algorithm

    def test_out_of_range_value_raises(self):
        g = diamond()
        for algorithm in ("pcce", "deltapath"):
            enc = encode(g, algorithm)
            with pytest.raises(DecodingError):
                enc.decode("c", enc.max_id + 1)
