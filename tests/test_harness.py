import random

import pytest
from hypothesis import given, settings, strategies as st

from votectrl.control import (
    AddCandidates, AddSet, DeleteCandidates, DeleteSet,
    CONSTRUCTIVE, DESTRUCTIVE, TE, TP, goal_met, outcome,
)
from votectrl.core import Election, unique_winner
from votectrl.errors import NonInjectiveMap, PreconditionFailed
from votectrl.harness import (
    RenamingMap, anonymity_falsify, ccac_to_dcdc, dcdc_to_ccac, embed_rename,
    inheritance_check, random_instance, replay_recorded_scenarios,
    special_construction,
)
from votectrl.control import SHAPES as _SHAPES
from votectrl.solvers import brute_force_decide
from votectrl.systems import atomic, hybrid, winners

from test_control import SAMPLES


class TestRenamingMap:
    def test_affine(self):
        m = RenamingMap.affine(3, 1)
        assert [m.apply(c) for c in (0, 1, 2)] == [1, 4, 7]

    def test_affine_validation(self):
        with pytest.raises(NonInjectiveMap):
            RenamingMap.affine(0, 0)
        with pytest.raises(NonInjectiveMap):
            RenamingMap.affine(2, 2)

    def test_explicit(self):
        m = RenamingMap.explicit({0: 5, 1: 3})
        assert m.apply(0) == 5
        with pytest.raises(NonInjectiveMap):
            m.apply(7)

    def test_explicit_must_be_injective(self):
        with pytest.raises(NonInjectiveMap):
            RenamingMap.explicit({0: 5, 1: 5})


def test_embed_rename_election():
    e = Election({0, 1}, [(1, 0)])
    out = embed_rename(e, RenamingMap.affine(2, 0))
    assert out == Election({0, 2}, [(2, 0)])


@pytest.mark.parametrize("inst", SAMPLES, ids=lambda i: i.type_code)
def test_embed_rename_instance(inst):
    out = embed_rename(inst, RenamingMap.affine(2, 1))
    # every candidate id in every field is renamed, whichever field holds it
    for name, value in vars(inst).items():
        got = getattr(out, name)
        if name == "distinguished":
            assert got == 2 * value + 1
        elif isinstance(value, frozenset):
            assert got == frozenset(2 * c + 1 for c in value)
        elif isinstance(value, tuple):
            assert got == tuple(tuple(2 * c + 1 for c in b) for b in value)
        else:
            assert got == value, name


def test_embed_rename_rejects_collisions():
    e = Election({0, 1}, [(1, 0)])
    with pytest.raises(NonInjectiveMap):
        embed_rename(e, RenamingMap.explicit({0: 4, 1: 4}))


def test_inheritance_check_on_random_instances():
    rng = random.Random(1)
    constituents = tuple(atomic(t)
                         for t in ("plurality", "condorcet", "not_all_one"))
    for _ in range(60):
        index = rng.randrange(3)
        inst = random_instance(rng, rng.choice(_SHAPES),
                               rng.choice((CONSTRUCTIVE, DESTRUCTIVE)),
                               constituents[index], tie=rng.choice((TE, TP)))
        assert inheritance_check(constituents, index, inst).equal


def test_anonymity_clean_for_plurality():
    assert anonymity_falsify(atomic("plurality"), 300) is None


def test_anonymity_witness_for_two_way_hybrid():
    # routing depends on candidate names, so renaming can change the outcome
    w = anonymity_falsify(hybrid("e_first", "e_last"), 10000)
    assert w is not None
    assert w.expected != w.actual
    # the witness replays: renaming the election really gives `actual`
    renamed = embed_rename(w.election, RenamingMap.explicit(w.mapping))
    assert winners(hybrid("e_first", "e_last"), renamed) == w.actual


def test_special_construction_restores_both_halves():
    e = Election({0, 1}, [(0, 1), (0, 1), (1, 0)])
    sid = atomic("plurality")
    report = special_construction(sid, e, 0)
    # deleting either half leaves a renamed copy of the original election,
    # so each direction restores a unique winner
    assert report.winners_after_deleting_clones == {0}
    assert report.winners_after_deleting_originals == {0 + report.delta}
    assert report.restores_original and report.restores_clone


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_special_construction_halves_restrict_to_the_inputs(data):
    m = data.draw(st.integers(1, 4))
    order = list(range(m))
    v = data.draw(st.integers(1, 4))
    ballots = tuple(tuple(data.draw(st.permutations(order))) for _ in range(v))
    e = Election(order, ballots)
    ws = winners(atomic("plurality"), e)
    if len(ws) != 1:
        return
    (c,) = ws
    report = special_construction(atomic("plurality"), e, c)
    combined = report.combined
    assert len(combined.ballots) == len(e.ballots)
    delta = report.delta
    for orig, comb in zip(e.ballots, combined.ballots):
        assert tuple(x for x in comb if x in e.candidates) == orig
        assert tuple(x for x in comb if x not in e.candidates) == tuple(
            x + delta for x in orig)


def test_special_construction_requires_a_unique_winner():
    e = Election({0, 1}, [(0, 1), (1, 0)])
    with pytest.raises(PreconditionFailed):
        special_construction(atomic("plurality"), e, 0)


def test_add_delete_duality_roundtrip():
    sid = hybrid("e_first", "e_last")
    ccac = AddCandidates(sid, frozenset({0, 2}), frozenset({1}), 0,
                         ((2, 1, 0),), CONSTRUCTIVE)
    action = AddSet(frozenset({1}))
    assert goal_met(ccac, action)

    dcdc, delete = ccac_to_dcdc(ccac, action)
    assert dcdc.goal == DESTRUCTIVE
    assert unique_winner(winners(sid, Election(dcdc.candidates, dcdc.ballots)),
                         0)
    assert goal_met(dcdc, delete)

    back, add = dcdc_to_ccac(dcdc, delete)
    assert back.goal == CONSTRUCTIVE
    assert goal_met(back, add)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_instance_respects_bounds(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    shape = data.draw(st.sampled_from(_SHAPES))
    inst = random_instance(rng, shape,
                           data.draw(st.sampled_from((CONSTRUCTIVE, DESTRUCTIVE))),
                           atomic("plurality"),
                           tie=data.draw(st.sampled_from((TE, TP))))
    if isinstance(inst, AddCandidates):
        cands = inst.qualified | inst.spoilers
    else:
        cands = inst.candidates
    assert 1 <= len(cands) <= 4
    assert inst.distinguished in (inst.qualified
                                  if isinstance(inst, AddCandidates) else cands)
    assert len(inst.ballots) <= 5
    # a random instance is always brute-force decidable at these sizes
    brute_force_decide(inst)


def test_random_instance_rejects_unknown_shape():
    with pytest.raises(ValueError):
        random_instance(random.Random(0), "XX", CONSTRUCTIVE, atomic("plurality"))


def test_replay_scenarios_all_reproduce():
    results = replay_recorded_scenarios()
    assert len(results) == 4
    assert all(r.ok for r in results)
