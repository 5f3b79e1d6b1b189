"""The benchmark's tracer wraps names inside ``votectrl`` by attribute; a
renamed or moved one must fail here, not only in a benchmark run."""

from math import prod
from pathlib import Path

from votectrl.control import DeleteCandidates, DeleteSet, CONSTRUCTIVE
from votectrl.reductions import X3CInstance, reduce_x3c
from votectrl.solvers import Decision, brute_force_decide
from votectrl.systems import atomic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = [getattr(holder, attr) for holder, attr, _ in tracing.TRACE_POINTS]
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        inst = DeleteCandidates(atomic("plurality"), frozenset({0, 1, 2}), 0,
                                ((1, 0, 2), (2, 0, 1), (0, 1, 2)), 1, CONSTRUCTIVE)
        assert brute_force_decide(inst) == Decision(True, DeleteSet(frozenset({1})))
    finally:
        tracer.uninstall()
    assert [getattr(holder, attr) for holder, attr, _ in tracing.TRACE_POINTS] == originals
    # the memo's lookups are counted, one per deletion set tried ({}, {0},
    # {1}), and each miss reaches the winner function through a traced
    # module global
    metrics = tracer.metrics(1)
    assert metrics["solvers.cache_lookups"][0] == 3
    assert tracer.misses == 3
    assert metrics["core.restrict_calls"][0] > 0


def test_tracer_counts_the_classes_of_deleting_voters(monkeypatch):
    # adding and deleting voters classify through the counted form's codes,
    # the name the tracer wraps, so their sums are counted
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    gadget = reduce_x3c(X3CInstance(range(1, 7), [(1, 2, 3), (4, 5, 6), (2, 3, 4)]), "DCDV")
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        decision = brute_force_decide(gadget)
    finally:
        tracer.uninstall()
    assert decision.answer
    assert tracer.classes > 0


def test_tracer_counts_the_lanes_of_a_voter_partition_no_instance(monkeypatch):
    # DCPV on a family with no exact cover classifies every count class once,
    # each block of lanes with its complement block
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    family = [(3, 5, 6), (2, 3, 6), (1, 3, 6), (3, 4, 5), (2, 5, 6), (2, 3, 4), (1, 3, 5)]
    gadget = reduce_x3c(X3CInstance(range(1, 7), family), "DCPV")
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        decision = brute_force_decide(gadget)
    finally:
        tracer.uninstall()
    assert not decision.answer
    # the lead ballot, seven fillers and seven distinct set ballots, in that
    # order: the lowest groups up to 256 classes make the inner block (2 * 8
    # * 2**4), the other three sets 2**3 outer blocks, of which half are
    # judged, each complement pair once
    sizes = [1, 7] + [1] * 7
    inner = 1
    while inner * (sizes[0] + 1) <= 256:
        inner *= sizes.pop(0) + 1
    outer = prod(size + 1 for size in sizes)
    assert (inner, outer) == (256, 8)
    assert tracer.classes == 2 * inner * ((outer + 1) // 2)
