import itertools
import random
from dataclasses import replace

import pytest

from votectrl.control import (
    ALL_TYPE_CODES, SHAPES, SPECS, AddCandidates, AddSet, AddVoters, AddVoterSet,
    CachedEvaluator, CandidatePartition, DeleteCandidates, DeleteSet,
    DeleteVoters, DeleteVoterSet, PartitionCandidates, PartitionVoters,
    RunoffPartitionCandidates, VoterPartition,
    CONSTRUCTIVE, DESTRUCTIVE, TE, TP,
    _sides, format_instance, goal_met, outcome, parse_instance, shape_of, with_goal,
)
from votectrl.core import restrict
from votectrl.errors import BoundViolation, ParseError, ShapeMismatch
from votectrl.harness import random_instance
from votectrl.reductions import GraphInstance, reduce_half_vc
from votectrl.systems import ATOMIC_TAGS, atomic, hybrid, raw_winners

TWO_WAY = hybrid("e_first", "e_last")


def test_add_candidates_flips_routing():
    # adding the odd spoiler moves the election to the bottom-of-ballot rule
    inst = AddCandidates(TWO_WAY, frozenset({0, 2}), frozenset({1}), 0,
                         ((2, 1, 0),), CONSTRUCTIVE)
    assert outcome(inst, AddSet(frozenset())) == {2}
    assert outcome(inst, AddSet(frozenset({1}))) == {0}
    assert goal_met(inst, AddSet(frozenset({1})))


def test_add_candidates_validation():
    with pytest.raises(ValueError):
        AddCandidates(TWO_WAY, frozenset({0}), frozenset({0, 1}), 0, (), CONSTRUCTIVE)
    with pytest.raises(ValueError):
        AddCandidates(TWO_WAY, frozenset({0}), frozenset({1}), 1, (), CONSTRUCTIVE)
    with pytest.raises(BoundViolation):
        inst = AddCandidates(TWO_WAY, frozenset({0}), frozenset({1}), 0,
                             ((0, 1),), CONSTRUCTIVE)
        outcome(inst, AddSet(frozenset({2})))


def test_delete_candidates_limit_and_destructive_guard():
    inst = DeleteCandidates(atomic("plurality"), frozenset({0, 1, 2}), 0,
                            ((0, 1, 2), (1, 0, 2)), 1, DESTRUCTIVE)
    assert outcome(inst, DeleteSet(frozenset({1}))) == {0}
    with pytest.raises(BoundViolation):
        outcome(inst, DeleteSet(frozenset({1, 2})))  # over the limit
    with pytest.raises(BoundViolation):
        outcome(inst, DeleteSet(frozenset({0})))  # distinguished, destructive
    # constructive control may delete the distinguished candidate
    cons = with_goal(inst, CONSTRUCTIVE)
    assert outcome(cons, DeleteSet(frozenset({0}))) == {1}


def test_partition_candidates_te_vs_tp():
    # side-1 survivors face side 2 in the final; TE drops tied subelections
    plur = atomic("plurality")
    ballots = ((0, 1, 2), (1, 0, 2))
    for tie, expect in ((TE, {2}), (TP, {0, 1})):
        inst = PartitionCandidates(plur, frozenset({0, 1, 2}), 0, ballots,
                                   tie, CONSTRUCTIVE)
        got = outcome(inst, CandidatePartition(frozenset({0, 1}), frozenset({2})))
        assert got == expect, tie


def test_runoff_partition_runs_both_sides():
    inst = RunoffPartitionCandidates(TWO_WAY, frozenset({0, 1, 2}), 2,
                                     ((2, 1, 0),), TE, CONSTRUCTIVE)
    # sides {0,1} and {2}: survivors 0 (e_last on 1 > 0) and 2 (solo even)
    got = outcome(inst, CandidatePartition(frozenset({0, 1}), frozenset({2})))
    assert got == {2}


def test_partition_must_cover_candidates():
    inst = PartitionCandidates(atomic("plurality"), frozenset({0, 1, 2}), 0,
                               (), TE, CONSTRUCTIVE)
    with pytest.raises(BoundViolation):
        outcome(inst, CandidatePartition(frozenset({0}), frozenset({1})))


def test_candidate_partition_sides_disjoint():
    with pytest.raises(ValueError):
        CandidatePartition(frozenset({0, 1}), frozenset({1}))


def test_add_voters_appends_in_index_order():
    inst = AddVoters(atomic("plurality"), frozenset({0, 1}), 0,
                     registered=((1, 0),),
                     unregistered=((0, 1), (1, 0), (0, 1)),
                     limit=2, goal=CONSTRUCTIVE)
    assert outcome(inst, AddVoterSet(frozenset({2, 0}))) == {0}
    assert goal_met(inst, AddVoterSet(frozenset())) is False
    with pytest.raises(BoundViolation):
        outcome(inst, AddVoterSet(frozenset({0, 1, 2})))
    with pytest.raises(BoundViolation):
        outcome(inst, AddVoterSet(frozenset({7})))


def test_add_voters_limit_bounded_by_pool():
    with pytest.raises(ValueError):
        AddVoters(atomic("plurality"), frozenset({0}), 0, (), ((0,),), 2,
                  CONSTRUCTIVE)


def test_delete_voters():
    inst = DeleteVoters(atomic("plurality"), frozenset({0, 1}), 0,
                        ((1, 0), (1, 0), (0, 1)), 2, CONSTRUCTIVE)
    assert outcome(inst, DeleteVoterSet(frozenset({0, 1}))) == {0}
    assert goal_met(inst, DeleteVoterSet(frozenset({0, 1})))
    with pytest.raises(BoundViolation):
        outcome(inst, DeleteVoterSet(frozenset({3})))


def test_partition_voters_staged_semantics():
    plur = atomic("plurality")
    ballots = ((0, 1), (0, 1), (1, 0), (1, 0))
    inst = PartitionVoters(plur, frozenset({0, 1}), 0, ballots, TE, CONSTRUCTIVE)
    # sides {0,1} / {2,3} each elect unique winners 0 and 1; the full
    # electorate then ties them in the final
    assert outcome(inst, VoterPartition(frozenset({0, 1}))) == {0, 1}
    # lopsided electorate: both side winners survive, the final breaks for 0
    lop = PartitionVoters(atomic("plurality"), frozenset({0, 1}), 0,
                          ((0, 1), (0, 1), (0, 1), (1, 0)), TE, CONSTRUCTIVE)
    assert outcome(lop, VoterPartition(frozenset({3}))) == {0}
    assert goal_met(lop, VoterPartition(frozenset({3})))


def test_zero_candidate_final_stage_is_empty():
    # a two-way tie on both sides leaves no survivors under TE
    inst = PartitionVoters(atomic("plurality"), frozenset({0, 1}), 0,
                           ((0, 1), (1, 0), (0, 1), (1, 0)), TE, CONSTRUCTIVE)
    assert outcome(inst, VoterPartition(frozenset({0, 1}))) == set()


# one instance of each shape
SAMPLES = [
    AddCandidates(TWO_WAY, frozenset({0, 2}), frozenset({1}), 0,
                  ((2, 1, 0),), CONSTRUCTIVE),
    DeleteCandidates(atomic("e1_prefix"), frozenset({0, 1, 2}), 0,
                     ((1, 2, 0), (2, 0, 1)), 2, CONSTRUCTIVE),
    PartitionCandidates(atomic("not_all_one"), frozenset({0, 1}), 1,
                        ((1, 0),), TP, DESTRUCTIVE),
    RunoffPartitionCandidates(atomic("e1_tri"), frozenset({4, 6}), 4,
                              ((4, 6),), TE, CONSTRUCTIVE),
    AddVoters(atomic("plurality"), frozenset({0, 1}), 0, ((1, 0),),
              ((0, 1), (0, 1)), 1, CONSTRUCTIVE),
    DeleteVoters(atomic("not_all_one"), frozenset({0, 1}), 0,
                 ((0, 1), (1, 0)), 1, DESTRUCTIVE),
    PartitionVoters(atomic("condorcet"), frozenset({0, 1, 2}), 2,
                    ((2, 1, 0), (2, 0, 1)), TE, CONSTRUCTIVE),
]


ACTIONS = [AddSet(frozenset()), DeleteSet(frozenset()),
           CandidatePartition(frozenset(), frozenset()), AddVoterSet(frozenset()),
           DeleteVoterSet(frozenset()), VoterPartition(frozenset())]
FITS = {AddCandidates: AddSet, DeleteCandidates: DeleteSet,
        PartitionCandidates: CandidatePartition,
        RunoffPartitionCandidates: CandidatePartition, AddVoters: AddVoterSet,
        DeleteVoters: DeleteVoterSet, PartitionVoters: VoterPartition}


@pytest.mark.parametrize("inst, action", [
    pytest.param(inst, action, id=f"{inst.type_code}-{type(action).__name__}")
    for inst in SAMPLES for action in ACTIONS
    if type(action) is not FITS[type(inst)]])
def test_shape_mismatch(inst, action):
    with pytest.raises(ShapeMismatch):
        outcome(inst, action)


def test_all_type_codes():
    assert len(ALL_TYPE_CODES) == 14
    assert "CCRPC" in ALL_TYPE_CODES and "DCPV" in ALL_TYPE_CODES


def test_k_zero_is_legal():
    inst = DeleteCandidates(atomic("plurality"), frozenset({0}), 0, ((0,),),
                            0, CONSTRUCTIVE)
    assert goal_met(inst, DeleteSet(frozenset()))
    with pytest.raises(ValueError):
        DeleteCandidates(atomic("plurality"), frozenset({0}), 0, ((0,),),
                         -1, CONSTRUCTIVE)


# --- outcome against first principles ----------------------------------------


def reference_outcome(inst, action):
    """The final winner set of ``action``, computed without ``control``'s
    finals: every ballot restricted on its own, voters selected by index,
    each election passed to ``raw_winners``, nothing memoized."""
    def elect(cands, ballots):
        return raw_winners(inst.system, cands, tuple(restrict(b, cands) for b in ballots))

    def survivors(ws):
        return ws if inst.tie == TP or len(ws) == 1 else frozenset()

    code = shape_of(inst).code
    if code == "AC":
        return elect(inst.qualified | action.added, inst.ballots)
    if code == "DC":
        return elect(inst.candidates - action.deleted, inst.ballots)
    if code == "PC":
        return elect(survivors(elect(action.side1, inst.ballots)) | action.side2,
                     inst.ballots)
    if code == "RPC":
        return elect(survivors(elect(action.side1, inst.ballots))
                     | survivors(elect(action.side2, inst.ballots)), inst.ballots)
    if code == "AV":
        added = tuple(inst.unregistered[i] for i in sorted(action.added))
        return elect(inst.candidates, inst.registered + added)
    indices = range(len(inst.ballots))
    if code == "DV":
        return elect(inst.candidates,
                     tuple(inst.ballots[i] for i in indices if i not in action.deleted))
    v1 = tuple(inst.ballots[i] for i in indices if i in action.side1)
    v2 = tuple(inst.ballots[i] for i in indices if i not in action.side1)
    return elect(survivors(elect(inst.candidates, v1))
                 | survivors(elect(inst.candidates, v2)), inst.ballots)


# the 13 rules, the three hybrids of the random-mix benchmark workload and a
# hybrid with an order-reading constituent
DIFFERENTIAL_SYSTEMS = tuple(atomic(t) for t in ATOMIC_TAGS) + (
    hybrid("plurality", "condorcet", "not_all_one"), hybrid("e_first", "e_last"),
    hybrid("e0_solo", "e1_prefix"), hybrid("not_all_one", "e1_prefix"))


def _differential_instances():
    rng = random.Random(6)
    for sid, shape, goal in itertools.product(
            DIFFERENTIAL_SYSTEMS, SHAPES, (CONSTRUCTIVE, DESTRUCTIVE)):
        inst = random_instance(rng, shape, goal, sid, tie=rng.choice((TE, TP)),
                               max_voters=4)
        yield inst
        # the same ballots twice over: every ballot repeats, interleaved
        profiles = shape_of(inst).profiles
        yield replace(inst, **{p: getattr(inst, p) * 2 for p in profiles})
    # half-cover gadgets: one filler ballot repeated around the edge ballots
    graphs = [GraphInstance(range(4), edges) for edges in (
        (), ((0, 1),), ((0, 1), (2, 3)), ((0, 1), (1, 2), (2, 3)),
        ((0, 1), (0, 2), (0, 3)), tuple(itertools.combinations(range(4), 2)))]
    for g, target in itertools.product(graphs, ("CCPC", "DCDC", "DCPC", "DCRPC")):
        yield reduce_half_vc(g, target)


def test_outcome_matches_first_principles_on_every_action():
    checked = set()
    for inst in _differential_instances():
        shared = CachedEvaluator(inst)
        shape = shape_of(inst)
        for action in (shape.act(inst, chosen) for chosen in shape.choices(inst)[1]):
            want = reference_outcome(inst, action)
            assert outcome(inst, action) == want, (inst, action)
            assert outcome(inst, action, shared) == want, (inst, action)
        checked.add((inst.system, shape_of(inst).code))
    # every (system, shape) pair of the draws, and the gadgets' four
    assert len(checked) == len(DIFFERENTIAL_SYSTEMS) * len(SHAPES) + 4


def test_outcome_refuses_another_instances_evaluator():
    inst = DeleteCandidates(atomic("e1_prefix"), frozenset({0, 1, 2}), 0,
                            ((1, 2, 0), (2, 0, 1)), 2, CONSTRUCTIVE)
    other = replace(inst, ballots=((0, 2, 1), (2, 0, 1)))
    action = DeleteSet(frozenset({1}))
    # an equal copy of the instance may share its memo
    assert outcome(inst, action, CachedEvaluator(replace(inst))) == {2}
    assert reference_outcome(other, action) == {0}
    with pytest.raises(ValueError):
        outcome(inst, action, CachedEvaluator(other))
    with pytest.raises(ValueError):
        goal_met(inst, action, CachedEvaluator(other))


# --- the search's chosen sets and the memo's one restriction per miss --------

# the 13 rules, the three hybrids of the random-mix benchmark workload and
# the hybrids of the vertex-cover gadgets of vc-candidate
BENCHMARK_SYSTEMS = tuple(atomic(t) for t in ATOMIC_TAGS) + (
    hybrid("plurality", "condorcet", "not_all_one"), hybrid("e_first", "e_last"),
    hybrid("e0_solo", "e1_prefix"), hybrid("e0_single", "e1_tri"),
    hybrid("e0_single", "e1_tri_even"), hybrid("e0_dfirst", "e1_second"))
# the 20 control types; partition shapes once per tie model
TYPES = tuple((goal, shape, tie) for goal in (CONSTRUCTIVE, DESTRUCTIVE)
              for shape in SHAPES
              for tie in ((TE, TP) if SPECS[shape].has_tie else (TE,)))


@pytest.mark.parametrize("goal, shape, tie", [
    pytest.param(goal, shape, tie, id=("CC" if goal == CONSTRUCTIVE else "DC") + shape
                 + ("-" + tie if SPECS[shape].has_tie else ""))
    for goal, shape, tie in TYPES])
def test_every_enumerated_set_is_a_legal_action(goal, shape, tie):
    # the search runs ``final`` on the enumeration's sets with no bound
    # checks, so each set, made into its action, must pass ``outcome``'s
    # check and give the same winners
    spec = SPECS[shape]
    rng = random.Random(TYPES.index((goal, shape, tie)))
    for sid in BENCHMARK_SYSTEMS:
        for _ in range(3):
            inst = random_instance(rng, shape, goal, sid, tie=tie,
                                   max_candidates=5, max_voters=6)
            count, choices = spec.choices(inst)
            chosen_sets = list(choices)
            assert len(chosen_sets) == count
            assert len(set(map(frozenset, chosen_sets))) == count
            evaluate = CachedEvaluator(inst)
            for chosen in chosen_sets:
                action = spec.act(inst, chosen)
                assert type(action) is spec.action
                assert spec.check(inst, action) == frozenset(chosen)
                assert outcome(inst, action) == spec.final(inst, chosen, evaluate), (inst, action)


def _mask_order_sides(order):
    """Side-1 sets by ascending mask, bit j standing for ``order[j]``, one
    mask at a time."""
    m = len(order)
    return [frozenset(order[j] for j in range(m) if mask >> j & 1) for mask in range(2 ** m)]


@pytest.mark.parametrize("m", range(10))
def test_partition_sides_come_in_ascending_mask_order(m):
    # odd m splits into unequal halves, and m = 0 or 1 leaves a half empty
    picked = random.Random(m).sample(range(30), m)
    for order in (sorted(picked), picked, range(m)):
        assert list(_sides(order)) == _mask_order_sides(order)


_RNG = random.Random(18)
_PERMS = list(itertools.permutations(range(4)))
_FEW = _RNG.sample(_PERMS, 3)
PROFILES = {
    "no-ballot": (),
    "one-ballot": ((2, 0, 3, 1),),
    "identical-ballots": ((1, 3, 0, 2),) * 5,
    "100-ballots-3-distinct": tuple(_RNG.choice(_FEW) for _ in range(100)),
    "distinct-ballots": tuple(_RNG.sample(_PERMS, 7)),
}


@pytest.mark.parametrize("profile", PROFILES)
def test_cached_evaluator_matches_per_ballot_restriction(profile):
    ballots = PROFILES[profile]
    instances = [DeleteCandidates(sid, frozenset(range(4)), 0, ballots, 0, CONSTRUCTIVE)
                 for sid in BENCHMARK_SYSTEMS]
    # two candidate-set fields: the ballots rank the qualified and the spoilers
    instances.append(AddCandidates(TWO_WAY, frozenset({0, 2}), frozenset({1, 3}), 0,
                                   ballots, CONSTRUCTIVE))
    # every subset, the empty set among them, twice: a miss, then a hit
    subsets = [frozenset(s) for r in range(5) for s in itertools.combinations(range(4), r)]
    for inst in instances:
        evaluate = CachedEvaluator(inst)
        for cands in subsets + subsets:
            want = raw_winners(inst.system, cands, tuple(restrict(b, cands) for b in ballots))
            assert evaluate(cands) == want, (inst.system, cands)


# --- text format -------------------------------------------------------------


@pytest.mark.parametrize("inst", SAMPLES, ids=lambda i: i.type_code)
def test_format_parse_roundtrip(inst):
    assert parse_instance(format_instance(inst)) == inst


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_instance("type CCDC\nsystem plurality\ndistinguished 0\ncandidates 0\n")
    with pytest.raises(ParseError):
        parse_instance("type CCXX\nsystem plurality\ndistinguished 0\nk 0\n")
    with pytest.raises(ParseError):
        parse_instance("system plurality\ndistinguished 0\n")
    with pytest.raises(ParseError):
        parse_instance("type CCDC\nsystem plurality\ndistinguished 0\nk 0\n"
                       "candidates 0 1\nballot 0\n")
