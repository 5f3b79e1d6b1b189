"""Every decision path of ``brute_force_decide`` against the reference enumerator.

``perfbench/oracles.reference_decide`` tries the canonical chair actions one
at a time with the plain ``control.goal_met`` and shares no search code with
``solvers``: no count classes, no packed counts, no memo.  Each test here
compares answers and witnesses, so a faster path that picks a later
witness, or evaluates an election wrongly, fails.  The reference module is
imported read-only from the benchmark's directory.
"""

import random
from collections import Counter
from math import prod
from pathlib import Path

import pytest

from votectrl.control import (
    AddVoters, DeleteVoters, PartitionVoters, CONSTRUCTIVE, DESTRUCTIVE, SHAPES, SPECS, TE, TP,
)
from votectrl.errors import BudgetExceeded
from votectrl.harness import random_instance
from votectrl.reductions import X3CInstance, reduce_x3c
from votectrl.solvers import brute_force_decide
from votectrl.systems import ATOMIC_TAGS, RULES, atomic, parse_system, route

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the 13 rules, the three hybrids of the benchmark's random-mix workload,
# and a hybrid that routes all-even candidate sets to not_all_one
SYSTEMS = tuple(atomic(t) for t in ATOMIC_TAGS) + tuple(map(parse_system, (
    "hybrid:plurality,condorcet,not_all_one",
    "hybrid:e_first,e_last",
    "hybrid:e0_solo,e1_prefix",
    "hybrid:not_all_one,e1_prefix",
)))
# the 20 control types; partition shapes once per tie model
TYPES = tuple((goal, shape, tie) for goal in (CONSTRUCTIVE, DESTRUCTIVE)
              for shape in SHAPES
              for tie in ((TE, TP) if SPECS[shape].has_tie else (TE,)))
DRAWS = 12  # per (control type, system)

NOT_ALL_ONE = atomic("not_all_one")
EVEN_TO_NOT_ALL_ONE = parse_system("hybrid:not_all_one,e1_prefix")


@pytest.fixture(scope="module")
def reference():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import oracles
    return oracles.reference_decide


def _type_id(goal, shape, tie):
    code = ("CC" if goal == CONSTRUCTIVE else "DC") + shape
    return code + ("-" + tie if SPECS[shape].has_tie else "")


def _agree(reference, inst):
    decision = brute_force_decide(inst)
    assert (decision.answer, decision.witness) == reference(inst), inst


@pytest.mark.parametrize("goal, shape, tie", TYPES, ids=[_type_id(*t) for t in TYPES])
def test_every_control_type_on_every_system(reference, goal, shape, tie):
    rng = random.Random(_type_id(goal, shape, tie))
    for sid in SYSTEMS:
        for _ in range(DRAWS):
            _agree(reference, random_instance(rng, shape, goal, sid, tie,
                                              max_candidates=5, max_voters=6))


# Adding and deleting voters under a rule with a counted form: boundary
# cases of the packed search, on not_all_one and on a hybrid routing there.
BALLOTS = ((0, 2, 4, 6), (0, 4, 2, 6), (2, 0, 4, 6), (4, 6, 0, 2))
LONE = ((4,),) * 3
VOTER_EDGES = {
    "dv-doubled": lambda sid, goal: DeleteVoters(
        sid, {0, 2, 4, 6}, 0, BALLOTS + BALLOTS, 3, goal),
    "av-doubled-pool": lambda sid, goal: AddVoters(
        sid, {0, 2, 4, 6}, 0, BALLOTS[2:], BALLOTS + BALLOTS, 4, goal),
    "dv-one-candidate": lambda sid, goal: DeleteVoters(sid, {4}, 4, LONE, 3, goal),
    "av-one-candidate": lambda sid, goal: AddVoters(sid, {4}, 4, (), LONE, 2, goal),
    "dv-limit-0": lambda sid, goal: DeleteVoters(sid, {0, 2, 4, 6}, 2, BALLOTS, 0, goal),
    "av-limit-0": lambda sid, goal: AddVoters(
        sid, {0, 2, 4, 6}, 2, BALLOTS, BALLOTS, 0, goal),
    "av-empty-pool": lambda sid, goal: AddVoters(sid, {0, 2, 4, 6}, 0, BALLOTS, (), 0, goal),
    "dv-no-ballots": lambda sid, goal: DeleteVoters(sid, {0, 2}, 0, (), 0, goal),
    "av-limit-at-pool-size": lambda sid, goal: AddVoters(
        sid, {0, 2, 4, 6}, 4, BALLOTS[3:], BALLOTS, 4, goal),
    "av-registered-repeat-in-pool": lambda sid, goal: AddVoters(
        sid, {0, 2, 4, 6}, 2, BALLOTS[:2],
        (BALLOTS[2], BALLOTS[0], BALLOTS[2], BALLOTS[1]), 3, goal),
}


@pytest.mark.parametrize("sid", [NOT_ALL_ONE, EVEN_TO_NOT_ALL_ONE],
                         ids=["not_all_one", "hybrid"])
@pytest.mark.parametrize("case", VOTER_EDGES)
def test_counted_voter_control_edge_cases(reference, case, sid):
    for goal in (CONSTRUCTIVE, DESTRUCTIVE):
        inst = VOTER_EDGES[case](sid, goal)
        assert route(sid, inst.candidates) == NOT_ALL_ONE
        _agree(reference, inst)


def test_add_voters_limit_above_the_pool_is_refused():
    with pytest.raises(ValueError, match="limit 5 is outside 0..4"):
        AddVoters(NOT_ALL_ONE, {0, 2, 4, 6}, 4, (), BALLOTS, 5, CONSTRUCTIVE)


def test_counted_voter_control_on_repeated_ballots(reference):
    # few distinct ballots, most of them headed by the distinguished
    # candidate, so majorities, blocked majorities and repeats all occur
    rng = random.Random(9)
    for _ in range(1000):
        m = rng.randint(1, 5)
        cands = [2 * i for i in range(m)]
        kinds = []
        for _ in range(rng.randint(1, 3)):
            rng.shuffle(cands)
            kinds.append(tuple(cands))
        c = rng.choice(kinds)[0]
        draw = lambda n: tuple(rng.choice(kinds) for _ in range(n))
        sid = rng.choice((NOT_ALL_ONE, EVEN_TO_NOT_ALL_ONE))
        goal = rng.choice((CONSTRUCTIVE, DESTRUCTIVE))
        if rng.random() < 0.5:
            ballots = draw(rng.randint(0, 8))
            inst = DeleteVoters(sid, cands, c, ballots,
                                rng.randint(0, len(ballots)), goal)
        else:
            pool = draw(rng.randint(0, 7))
            inst = AddVoters(sid, cands, c, draw(rng.randint(0, 3)), pool,
                             rng.randint(0, len(pool)), goal)
        _agree(reference, inst)


# Voter partition on voter-anonymous rules: the count-class search walks
# classes in mask order, so groups of identical ballots that interleave,
# degenerate profiles and the exact-cover gadget (whose repeated set makes
# its set ballots interleave) must all give the reference's witness.
A, B, C = (0, 2, 4, 6), (2, 0, 4, 6), (4, 6, 0, 2)


def _x3c_gadget(sid, goal, tie):
    # four sets, {1, 2, 3} twice, with an exact cover; candidates doubled so
    # that the hybrid routes the all-even set to not_all_one
    family = X3CInstance(range(1, 7), ({1, 2, 3}, {2, 3, 4}, {1, 2, 3}, {4, 5, 6}))
    inst = reduce_x3c(family, "DCPV")
    return PartitionVoters(sid, {2 * c for c in inst.candidates}, 2 * inst.distinguished,
                           tuple(tuple(2 * c for c in b) for b in inst.ballots), tie, goal)


PV_EDGES = {
    "interleaved-repeats": lambda sid, goal, tie: PartitionVoters(
        sid, {0, 2, 4, 6}, 0, (A, B, A, C, B, A), tie, goal),
    "all-identical": lambda sid, goal, tie: PartitionVoters(
        sid, {0, 2, 4, 6}, 2, (B,) * 7, tie, goal),
    "no-ballots": lambda sid, goal, tie: PartitionVoters(sid, {0, 2}, 0, (), tie, goal),
    "one-ballot": lambda sid, goal, tie: PartitionVoters(sid, {0, 2, 4, 6}, 4, (C,), tie, goal),
    "one-candidate": lambda sid, goal, tie: PartitionVoters(sid, {4}, 4, LONE, tie, goal),
    "x3c-repeated-set": _x3c_gadget,
}
PV_SYSTEMS = (NOT_ALL_ONE, atomic("plurality"), atomic("condorcet"), EVEN_TO_NOT_ALL_ONE)


@pytest.mark.parametrize("sid", PV_SYSTEMS, ids=map(str, PV_SYSTEMS))
@pytest.mark.parametrize("case", PV_EDGES)
def test_anonymous_voter_partition_edge_cases(reference, case, sid):
    for goal in (CONSTRUCTIVE, DESTRUCTIVE):
        for tie in (TE, TP):
            inst = PV_EDGES[case](sid, goal, tie)
            assert RULES[route(sid, inst.candidates).tag].voter_anonymous
            _agree(reference, inst)


@pytest.mark.parametrize("case", PV_EDGES)
def test_anonymous_voter_partition_checks_the_class_budget(case):
    inst = PV_EDGES[case](NOT_ALL_ONE, DESTRUCTIVE, TE)
    classes = prod(k + 1 for k in Counter(inst.ballots).values())
    with pytest.raises(BudgetExceeded, match=f"{classes} voter-partition classes"):
        brute_force_decide(inst, budget=classes - 1)
    brute_force_decide(inst, budget=classes)
