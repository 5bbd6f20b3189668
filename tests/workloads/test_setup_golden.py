"""Golden digests of the static set-up of every SPECjvm program.

``setup_golden.json`` holds, per benchmark, SHA-256 digests of the three
set-up stages' outputs:

* ``program``: the serialized program (``program_to_dict``);
* ``callgraph``: entry, nodes with their attributes and edges as
  ``(caller, callee, label)`` in insertion order, under 0-CFA and CHA,
  each without and with dynamic classes;
* ``plan``: the encoding-all and application-only plans' anchors in
  order, ``plan_fingerprint`` and their sorted site and node tables.

A change that makes the generator, the call-graph builder or
Algorithm 2 faster must leave every digest as it is: the journey then
runs the same program, graph and plan. Frozensets are sorted before
hashing, so the digests do not depend on the hash seed.

Regenerate (only when an output is meant to change) with
``PYTHONPATH=src python tests/workloads/test_setup_golden.py``.
"""

import hashlib
import json
import os

import pytest

from repro.analysis.callgraph_builder import Policy, build_callgraph
from repro.lang.serialize import program_to_dict
from repro.resilience.checkpoint import plan_fingerprint
from repro.runtime.plan import build_plan_from_graph
from repro.workloads.specjvm import benchmark_names, build_benchmark

GOLDEN = os.path.join(os.path.dirname(__file__), "setup_golden.json")
GRAPHS = (
    ("0-cfa", Policy.ZERO_CFA, False),
    ("0-cfa+dynamic", Policy.ZERO_CFA, True),
    ("cha", Policy.CHA, False),
    ("cha+dynamic", Policy.CHA, True),
)


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _graph_value(graph):
    return {
        "entry": graph.entry,
        "nodes": [
            [node, sorted(graph.node_attrs(node).items())]
            for node in graph.nodes
        ],
        "edges": [
            [e.caller, e.callee, repr(e.label)] for e in graph.edges
        ],
    }


def _table(mapping, value=repr):
    return sorted((repr(key), value(item)) for key, item in mapping.items())


def _plan_value(plan):
    return {
        "anchors": list(plan.encoding.anchors),
        "fingerprint": plan_fingerprint(plan),
        "site_av": _table(plan.site_av),
        "site_sid": _table(plan.site_sid),
        "site_target": _table(plan.site_target),
        "node_info": _table(plan.node_info),
        "site_recursion": _table(
            plan.site_recursion, lambda targets: sorted(targets)
        ),
    }


def setup_digests(name: str) -> dict:
    """The digests of one benchmark's program, call graphs and plans."""
    program = build_benchmark(name).program
    graphs = {
        key: build_callgraph(program, policy=policy, include_dynamic=dynamic)
        for key, policy, dynamic in GRAPHS
    }
    static = graphs["0-cfa"]
    return {
        "program": _digest(program_to_dict(program)),
        "callgraph": {
            key: _digest(_graph_value(graph)) for key, graph in graphs.items()
        },
        "plan": {
            key: _digest(
                _plan_value(build_plan_from_graph(static, application_only=app))
            )
            for key, app in (("all", False), ("app", True))
        },
    }


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_benchmark():
    assert sorted(_golden()) == sorted(benchmark_names())


@pytest.mark.parametrize("name", benchmark_names())
def test_setup_matches_the_golden_digests(name):
    assert setup_digests(name) == _golden()[name]


if __name__ == "__main__":
    digests = {name: setup_digests(name) for name in benchmark_names()}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
