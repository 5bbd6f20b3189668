"""``DeltaPathProbe.max_stack_depth``: the deepest encoding stack the
probe held, with and without call path tracking.

The maximum is updated where entries are pushed (recursion, UCP and
anchor entries, and a hot swap's remapped stack), so every stack a
snapshot interns is at most that deep.
"""

import pytest

from repro.runtime.agent import DeltaPathProbe
from repro.runtime.collector import ContextCollector
from repro.runtime.plan import build_plan
from repro.workloads.specjvm import build_benchmark


@pytest.fixture(scope="module", params=("xml.transform", "sunflow"))
def built(request):
    benchmark = build_benchmark(request.param)
    return benchmark, build_plan(benchmark.program, application_only=True)


@pytest.mark.parametrize("cpt", (True, False), ids=("cpt", "wo-cpt"))
def test_max_depth_covers_every_interned_stack(built, cpt):
    benchmark, plan = built
    probe = DeltaPathProbe(plan, cpt=cpt)
    collector = ContextCollector(interest=plan.instrumented_nodes)
    benchmark.make_interpreter(
        probe=probe, seed=1, collector=collector
    ).run(operations=40)
    deepest = max(len(stack) for stack in probe.stack_table)
    # Both programs recurse, so some sampled stack holds several entries.
    assert deepest > 1
    assert probe.max_stack_depth >= deepest


def test_recursion_push_without_cpt_counts(built):
    """A recursion entry pushed by ``before_call`` raises the maximum
    even when no anchor entry follows it (wo/CPT instruments nothing
    else)."""
    benchmark, plan = built
    probe = DeltaPathProbe(plan, cpt=False)
    site = next(iter(plan.site_recursion))
    callee = next(iter(plan.site_recursion[site]))
    probe.begin_execution(plan.graph.entry)
    probe.before_call(site[0], site[1], callee)
    assert len(probe._stack) == 1
    assert probe.max_stack_depth == 1
