import functools
import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from votectrl.control import (
    AddCandidates, AddSet, AddVoters, CandidatePartition, DeleteCandidates,
    DeleteSet, DeleteVoters, PartitionCandidates, PartitionVoters,
    RunoffPartitionCandidates, VoterPartition,
    CONSTRUCTIVE, DESTRUCTIVE, TE, TP, goal_met,
)
from votectrl.core import restrict
from votectrl.errors import BudgetExceeded, WrongSystem
from votectrl.control import SHAPES as _SHAPES
from votectrl.harness import RenamingMap, embed_rename, random_instance
from votectrl.reductions import X3CInstance, reduce_x3c
from votectrl.solvers import (
    Decision, brute_force_decide, ccac_hybrid_poly, destructive_poly,
    e1_prefix_ccdc_poly, e1_tri_ccrpc_poly, e1_tri_even_ccpc_poly,
    route_and_solve_voters, _partition_voters_anonymous, CachedEvaluator,
    POLY_DECIDERS,
)
from votectrl.systems import ATOMIC_TAGS, RULES, atomic, hybrid, raw_winners, route

TWO_WAY = hybrid("e_first", "e_last")
PLURALITY = atomic("plurality")


def test_ccac_example_witness():
    inst = AddCandidates(TWO_WAY, frozenset({0, 2}), frozenset({1}), 0,
                         ((2, 1, 0),), CONSTRUCTIVE)
    d = brute_force_decide(inst)
    assert d == Decision(True, AddSet(frozenset({1})))


def test_dcpc_on_e1_second_always_isolates_c():
    inst = PartitionCandidates(atomic("e1_second"), frozenset({0, 1, 2}), 0,
                               ((1, 0, 2),), TE, DESTRUCTIVE)
    d = brute_force_decide(inst)
    assert d.answer and goal_met(inst, d.witness)


def test_already_winning_needs_no_deletion():
    inst = DeleteCandidates(PLURALITY, frozenset({1, 2}), 1, ((1, 2),), 1,
                            CONSTRUCTIVE)
    assert brute_force_decide(inst) == Decision(True, DeleteSet(frozenset()))


def test_witness_order_subsets_by_size_then_lex():
    # both {1} and {2} work; the lexicographically first small set wins
    inst = DeleteCandidates(PLURALITY, frozenset({0, 1, 2}), 0,
                            ((1, 0, 2), (2, 0, 1), (0, 1, 2)), 2, CONSTRUCTIVE)
    d = brute_force_decide(inst)
    assert d.answer
    assert d.witness == DeleteSet(frozenset({1}))


def test_partition_witness_order_mask_ascending():
    # every partition works for destructive e1_second; mask 0 is (∅, C)
    inst = RunoffPartitionCandidates(atomic("e1_second"), frozenset({0, 1}),
                                     0, ((1, 0),), TE, DESTRUCTIVE)
    d = brute_force_decide(inst)
    assert d.witness == CandidatePartition(frozenset(), frozenset({0, 1}))


def test_destructive_dc_never_deletes_distinguished():
    inst = DeleteCandidates(PLURALITY, frozenset({0, 1}), 0, ((0, 1),), 2,
                            DESTRUCTIVE)
    d = brute_force_decide(inst)
    assert d.answer is False  # deleting 1 leaves 0 the sole winner


def test_budget_exceeded():
    ballots = tuple((0, 1) for _ in range(30))
    inst = DeleteVoters(PLURALITY, frozenset({0, 1}), 1, ballots, 15, CONSTRUCTIVE)
    with pytest.raises(BudgetExceeded):
        brute_force_decide(inst, budget=1000)


def test_budget_exceeded_for_anonymous_voter_partition():
    # 31 * 31 count classes, one more than the budget allows
    ballots = ((0, 1),) * 30 + ((1, 0),) * 30
    inst = PartitionVoters(PLURALITY, frozenset({0, 1}), 1, ballots, TE,
                           CONSTRUCTIVE)
    assert RULES[inst.system.tag].voter_anonymous
    with pytest.raises(BudgetExceeded):
        brute_force_decide(inst, budget=31 * 31 - 1)


def test_budget_is_checked_before_any_partition_side_is_built():
    # 2 ** 30 partitions are refused before the two halves' side sets,
    # 2 * 2 ** 15 of them, are built
    pc = PartitionCandidates(PLURALITY, frozenset(range(30)), 0, (tuple(range(30)),),
                             TE, CONSTRUCTIVE)
    # e1_prefix reads ballot order, so PV walks the voter partitions
    pv = PartitionVoters(atomic("e1_prefix"), frozenset({0, 1}), 0, ((0, 1),) * 30,
                         TE, CONSTRUCTIVE)
    assert not RULES[pv.system.tag].voter_anonymous
    for inst in (pc, pv):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                brute_force_decide(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (type(inst).__name__, peak)


def test_decisions_are_deterministic():
    rng = random.Random(5)
    for _ in range(25):
        shape = rng.choice(_SHAPES)
        inst = random_instance(rng, shape, rng.choice((CONSTRUCTIVE, DESTRUCTIVE)),
                               PLURALITY, tie=rng.choice((TE, TP)))
        assert brute_force_decide(inst) == brute_force_decide(inst)


def naive_partition_voters(instance):
    """Every voter partition in ascending mask order.  Each election is
    computed here by ``raw_winners``, on ballots selected by index and
    restricted one by one; repeated elections are looked up by their input."""
    sid, cands, ballots = instance.system, instance.candidates, instance.ballots
    n = len(ballots)

    @functools.cache
    def survivors(side):
        ws = raw_winners(sid, cands, side)
        return ws if instance.tie == TP or len(ws) == 1 else frozenset()

    @functools.cache
    def runoff(final):
        return raw_winners(sid, final, tuple(restrict(b, final) for b in ballots))

    want = instance.goal == CONSTRUCTIVE
    for mask in range(2 ** n):
        v1 = tuple(b for i, b in enumerate(ballots) if mask >> i & 1)
        v2 = tuple(b for i, b in enumerate(ballots) if not mask >> i & 1)
        if (runoff(survivors(v1) | survivors(v2)) == {instance.distinguished}) == want:
            return Decision(True, VoterPartition(
                frozenset(i for i in range(n) if mask >> i & 1)))
    return Decision(False, None)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_anonymous_voter_partition_matches_naive_enumeration(data):
    m = data.draw(st.integers(1, 3))
    cands = frozenset(range(m))
    order = sorted(cands)
    ballots = tuple(data.draw(st.lists(
        st.permutations(order).map(tuple), max_size=6)))
    sid = data.draw(st.sampled_from([PLURALITY, atomic("not_all_one"),
                                     atomic("condorcet")]))
    inst = PartitionVoters(sid, cands, data.draw(st.sampled_from(order)),
                           ballots, data.draw(st.sampled_from((TE, TP))),
                           data.draw(st.sampled_from((CONSTRUCTIVE, DESTRUCTIVE))))
    fast = _partition_voters_anonymous(inst, CachedEvaluator(inst), 2 ** 24)
    assert fast == naive_partition_voters(inst)


def _goal_and_tie_variants(inst):
    for goal in (DESTRUCTIVE, CONSTRUCTIVE):
        for tie in (TE, TP):
            yield replace(inst, goal=goal, tie=tie)


def _assert_matches_naive(inst):
    fast = _partition_voters_anonymous(inst, CachedEvaluator(inst), 2 ** 24)
    assert fast == naive_partition_voters(inst), inst


def test_anonymous_voter_partition_witnesses_on_exact_cover_gadgets():
    # the DCPV gadget has up to 11 ballots over 10 candidates, so the top-four
    # blocking clause of not_all_one ranges over more than four candidates
    triples = [frozenset(t) for t in itertools.combinations(range(1, 7), 3)]
    rng = random.Random(20)
    families = [rng.sample(triples, rng.randint(1, 5)) for _ in range(6)]
    families.append([{1, 2, 3}, {1, 4, 5}, {4, 5, 6}, {2, 3, 6}, {3, 4, 5}])
    for family in families:
        inst = reduce_x3c(X3CInstance(range(1, 7), family), "DCPV")
        for variant in _goal_and_tie_variants(inst):
            _assert_matches_naive(variant)
    # a hybrid whose mixed-residue candidate set routes to not_all_one
    inst = reduce_x3c(X3CInstance(range(1, 7), families[-1]), "DCPV")
    for variant in _goal_and_tie_variants(
            replace(inst, system=hybrid("condorcet", "not_all_one"))):
        _assert_matches_naive(variant)


def test_voter_partition_gate_follows_the_routed_rule():
    # hybrid(not_all_one, e1_prefix) is not voter-anonymous as a whole, but
    # the renamed gadget's even candidates all route to not_all_one, so
    # brute force takes the count-class search: 384 classes fit the budget,
    # the 2^11 masks would not
    family = [{1, 2, 3}, {1, 4, 5}, {4, 5, 6}, {2, 3, 6}, {3, 4, 5}]
    gadget = reduce_x3c(X3CInstance(range(1, 7), family), "DCPV")
    inst = replace(embed_rename(gadget, RenamingMap.affine(2, 0)),
                   system=hybrid("not_all_one", "e1_prefix"))
    assert not RULES["e1_prefix"].voter_anonymous
    for variant in _goal_and_tie_variants(inst):
        assert (brute_force_decide(variant, budget=1000)
                == naive_partition_voters(variant)), variant


@pytest.mark.parametrize("copies", [7, 8, 15, 16])
def test_anonymous_voter_partition_at_packed_field_boundaries(copies):
    # totals of 7, 8, 15 and 16 ballots sit at the edges of the counted
    # not_all_one kernel's packed field widths
    cands = frozenset(range(4))
    ballots = ((0, 1, 2, 3),) * copies
    for c, goal in ((0, CONSTRUCTIVE), (0, DESTRUCTIVE), (1, DESTRUCTIVE)):
        _assert_matches_naive(PartitionVoters(atomic("not_all_one"), cands, c,
                                              ballots, TE, goal))


# ten distinct ballots whose witnesses lie beyond the first block: under
# not_all_one, c = 2 needs ballots 0 and 8 on side 1 (mask 257); under
# plurality, c = 3 needs ballot 8 alone (mask 256, the second block's first
# lane) and c = 1 ballots 0 to 8 (mask 511, its last lane)
LATE_WITNESSES = {
    "not_all_one": [(2, "2301 0312 0321 1032 3102 0132 1320 0213 2103 3120")],
    "plurality": [(3, "1230 0213 2031 0312 2310 1320 2103 0231 3102 1302"),
                  (1, "2013 0321 3102 0312 0123 3021 3210 3120 0132 1230")],
}


@pytest.mark.parametrize("tag", ["not_all_one", "plurality"])
def test_anonymous_voter_partition_across_lane_blocks(tag):
    # ten distinct ballots, one copy each: the eight lowest groups make an
    # inner block of 2**8 = 256 lanes, the two highest four outer blocks
    cands = frozenset(range(4))
    rng = random.Random(17)
    perms = list(itertools.permutations(sorted(cands)))
    draws = [(c, tuple(tuple(map(int, b)) for b in text.split()))
             for c, text in LATE_WITNESSES[tag]]
    draws += [(rng.randrange(4), tuple(rng.sample(perms, 10))) for _ in range(6)]
    seen = []
    for c, ballots in draws:
        inst = PartitionVoters(atomic(tag), cands, c, ballots, TE, CONSTRUCTIVE)
        for variant in _goal_and_tie_variants(inst):
            fast = _partition_voters_anonymous(variant, CachedEvaluator(variant), 2 ** 24)
            assert fast == naive_partition_voters(variant), variant
            seen.append(fast)
    assert not all(d.answer for d in seen)
    assert any(d.answer and max(d.witness.side1, default=0) >= 8 for d in seen)


# --- polynomial deciders -----------------------------------------------------


def test_ccac_poly_replays_the_add_example():
    inst = AddCandidates(TWO_WAY, frozenset({0, 2}), frozenset({1}), 0,
                         ((2, 1, 0),), CONSTRUCTIVE)
    d = ccac_hybrid_poly(inst)
    assert d.answer and goal_met(inst, d.witness)
    assert 1 in d.witness.added  # found by forcing in the odd spoiler


def test_ccac_poly_requires_hybrid():
    inst = AddCandidates(PLURALITY, frozenset({0}), frozenset({1}), 0,
                         ((0, 1),), CONSTRUCTIVE)
    with pytest.raises(WrongSystem):
        ccac_hybrid_poly(inst)


def test_ccac_poly_uniform_residue_delegation():
    # uniform residue with no off-residue spoiler routes to that residue's
    # constituent; a mixed-residue qualified set to the default
    for inst, constituent in (
            (AddCandidates(TWO_WAY, frozenset({0, 2}), frozenset({4}), 0,
                           ((0, 2, 4),), CONSTRUCTIVE), atomic("e_first")),
            (AddCandidates(TWO_WAY, frozenset({0, 1}), frozenset({2, 3}), 0,
                           ((1, 0, 3, 2),), DESTRUCTIVE), atomic("e_last"))):
        decision = ccac_hybrid_poly(inst)
        assert decision == brute_force_decide(inst)
        assert decision == brute_force_decide(replace(inst, system=constituent))
        assert decision.answer


def test_e1_prefix_ccdc_poly_example():
    inst = DeleteCandidates(atomic("e1_prefix"), frozenset({0, 1, 2, 3, 4}), 0,
                            ((1, 2, 0, 3, 4), (2, 0, 1, 3, 4)), 2, CONSTRUCTIVE)
    d = e1_prefix_ccdc_poly(inst)
    assert d.answer and goal_met(inst, d.witness)


def test_e1_prefix_ccdc_poly_single_voter_rejects():
    inst = DeleteCandidates(atomic("e1_prefix"), frozenset({0, 1}), 0,
                            ((1, 0),), 1, CONSTRUCTIVE)
    assert e1_prefix_ccdc_poly(inst).answer is False


def test_e1_prefix_ccdc_poly_rejects_wrong_shape():
    inst = DeleteCandidates(PLURALITY, frozenset({0}), 0, ((0,),), 0, CONSTRUCTIVE)
    with pytest.raises(WrongSystem):
        e1_prefix_ccdc_poly(inst)


def test_e1_tri_ccrpc_poly():
    good = RunoffPartitionCandidates(atomic("e1_tri"), frozenset({4, 6}), 4,
                                     ((4, 6),), TE, CONSTRUCTIVE)
    d = e1_tri_ccrpc_poly(good)
    assert d.answer
    assert d.witness == CandidatePartition(frozenset({4}), frozenset({6}))
    # three voters is not of the form 1 + n(n-1)/2
    bad = RunoffPartitionCandidates(atomic("e1_tri"), frozenset({4, 6}), 4,
                                    ((4, 6),) * 3, TE, CONSTRUCTIVE)
    assert e1_tri_ccrpc_poly(bad).answer is False


def test_e1_tri_even_ccpc_poly():
    inst = PartitionCandidates(atomic("e1_tri_even"), frozenset({4, 6}), 4,
                               ((4, 6), (4, 6)), TE, CONSTRUCTIVE)
    assert e1_tri_even_ccpc_poly(inst).answer == brute_force_decide(inst).answer
    odd = PartitionCandidates(atomic("e1_tri_even"), frozenset({4, 6}), 4,
                              ((4, 6),) * 3, TE, CONSTRUCTIVE)
    assert e1_tri_even_ccpc_poly(odd).answer is False


def test_destructive_poly_k_gt_zero_on_e1_second():
    inst = DeleteCandidates(atomic("e1_second"), frozenset({2, 4}), 2,
                            ((4, 2),), 1, DESTRUCTIVE)
    d = destructive_poly(inst)
    assert d.answer and goal_met(inst, d.witness)


def test_destructive_poly_partition_always_works_on_e1_second():
    inst = PartitionCandidates(atomic("e1_second"), frozenset({0, 1, 2}), 0,
                               ((1, 0, 2),) * 5, TP, DESTRUCTIVE)
    d = destructive_poly(inst)
    assert d.witness == CandidatePartition(frozenset({0}), frozenset({1, 2}))
    assert goal_met(inst, d.witness)


def test_destructive_poly_e0_dfirst_needs_enough_deletions():
    # one voter ranking c first: all rivals must go
    base = dict(system=atomic("e0_dfirst"), candidates=frozenset({0, 1, 2}),
                distinguished=0, ballots=((0, 1, 2),), goal=DESTRUCTIVE)
    assert destructive_poly(DeleteCandidates(limit=1, **base)).answer is False
    d = destructive_poly(DeleteCandidates(limit=2, **base))
    assert d == Decision(True, DeleteSet(frozenset({1, 2})))
    assert brute_force_decide(DeleteCandidates(limit=1, **base)).answer is False


def test_destructive_poly_rejects_constructive():
    inst = DeleteCandidates(atomic("e1_second"), frozenset({0, 1}), 0,
                            ((1, 0),), 1, CONSTRUCTIVE)
    with pytest.raises(WrongSystem):
        destructive_poly(inst)


def test_route_and_solve_voters_matches_brute_force():
    # the hybrid decides as the constituent its candidate set routes to,
    # answer and witness; not_all_one takes the counted kernel
    rng = random.Random(9)
    for sid in (hybrid("plurality", "condorcet"), hybrid("not_all_one", "plurality")):
        routed = set()
        for _ in range(60):
            shape = rng.choice(("AV", "DV"))
            inst = random_instance(rng, shape, rng.choice((CONSTRUCTIVE, DESTRUCTIVE)),
                                   sid, tie=rng.choice((TE, TP)))
            constituent = route(sid, inst.candidates)
            routed.add(constituent)
            assert route_and_solve_voters(inst) == brute_force_decide(
                replace(inst, system=constituent))
        assert routed == set(sid.constituents)


def test_poly_registry_covers_the_expected_control_types():
    # the rules, hybrids and twenty control types of the random-mix benchmark
    systems = [atomic(t) for t in ATOMIC_TAGS] + [
        hybrid("plurality", "condorcet", "not_all_one"), TWO_WAY,
        hybrid("e0_solo", "e1_prefix")]
    types = [(shape, goal) for goal in (CONSTRUCTIVE, DESTRUCTIVE)
             for shape in _SHAPES
             for _ in ((TE, TP) if shape in ("PC", "RPC", "PV") else (TE,))]
    assert len(types) == 20
    for sid in systems:
        for shape, goal in types:
            constructive = goal == CONSTRUCTIVE
            expected = (
                shape in ("AC", "AV", "DV") if sid.is_hybrid
                else (sid.tag == "e1_prefix" and constructive and shape == "DC")
                or (sid.tag == "e1_tri" and constructive and shape == "RPC")
                or (sid.tag == "e1_tri_even" and constructive and shape == "PC")
                or (sid.tag in ("e0_dfirst", "e1_second") and not constructive
                    and shape in ("DC", "PC", "RPC")))
            assert ((shape, goal, sid.tag) in POLY_DECIDERS) == expected, (sid, shape, goal)


def test_route_and_solve_voters_rejects_candidate_control():
    inst = DeleteCandidates(TWO_WAY, frozenset({0}), 0, ((0,),), 0, CONSTRUCTIVE)
    with pytest.raises(WrongSystem):
        route_and_solve_voters(inst)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_true_decisions_carry_sound_witnesses(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    shape = data.draw(st.sampled_from(_SHAPES))
    sid = data.draw(st.sampled_from(
        [PLURALITY, atomic("not_all_one"), TWO_WAY]))
    inst = random_instance(rng, shape,
                           data.draw(st.sampled_from((CONSTRUCTIVE, DESTRUCTIVE))),
                           sid, tie=data.draw(st.sampled_from((TE, TP))))
    d = brute_force_decide(inst)
    if d.answer:
        assert goal_met(inst, d.witness)
    else:
        assert d.witness is None


def test_k_monotonicity_for_delete_voters():
    rng = random.Random(3)
    for _ in range(30):
        inst = random_instance(rng, "DV", rng.choice((CONSTRUCTIVE, DESTRUCTIVE)),
                               PLURALITY)
        answers = []
        for k in range(len(inst.ballots) + 1):
            answers.append(brute_force_decide(
                DeleteVoters(inst.system, inst.candidates, inst.distinguished,
                             inst.ballots, k, inst.goal)).answer)
        # once achievable, a larger allowance can only keep it achievable
        assert answers == sorted(answers)
