"""Empirical checks: renaming embeddings, anonymity falsification,
the duplicated-clone construction, and replays of the worked examples.

Nothing here proves a universal statement; the harness replays concrete
instances, searches randomly for counterexamples, and cross-checks the
brute-force deciders across the residue-embedding that places a
constituent's instance inside a hybrid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from .control import (
    AddCandidates, AddSet, CandidatePartition, ControlInstance,
    DeleteCandidates, DeleteSet, PartitionCandidates, RunoffPartitionCandidates,
    CONSTRUCTIVE, DESTRUCTIVE, SHAPES, SPECS, TE, TP, goal_met, outcome, shape_of,
)
from .core import Election, unique_winner
from .errors import NonInjectiveMap, PreconditionFailed, ReplayMismatch
from .solvers import Decision, brute_force_decide
from .systems import SystemId, hybrid, winners


@dataclass(frozen=True)
class RenamingMap:
    """A candidate renaming: affine (c -> k*c + i) or an explicit bijection."""

    k: int | None = None
    i: int | None = None
    mapping: dict[int, int] | None = None

    @classmethod
    def affine(cls, k: int, i: int) -> "RenamingMap":
        if k < 1 or not 0 <= i < k:
            raise NonInjectiveMap(f"affine map needs k >= 1 and 0 <= i < k, got {k}, {i}")
        return cls(k=k, i=i)

    @classmethod
    def explicit(cls, mapping: dict[int, int]) -> "RenamingMap":
        if len(set(mapping.values())) != len(mapping):
            raise NonInjectiveMap("explicit renaming must be injective")
        return cls(mapping=dict(mapping))

    def apply(self, c: int) -> int:
        if self.mapping is not None:
            try:
                return self.mapping[c]
            except KeyError as exc:
                raise NonInjectiveMap(f"candidate {c} not in renaming domain") from exc
        return self.k * c + self.i


def _rename_ballots(ballots, m: RenamingMap):
    return tuple(tuple(m.apply(c) for c in b) for b in ballots)


def _rename_set(cands, m: RenamingMap) -> frozenset[int]:
    out = frozenset(m.apply(c) for c in cands)
    if len(out) != len(frozenset(cands)):
        raise NonInjectiveMap("renaming collides on the candidate set")
    return out


def embed_rename(obj, m: RenamingMap):
    """Rename every candidate id of an Election or ControlInstance."""
    if isinstance(obj, Election):
        return Election(_rename_set(obj.candidates, m), _rename_ballots(obj.ballots, m))
    shape = shape_of(obj)
    renamed = {name: _rename_set(getattr(obj, name), m) for name in shape.sets}
    renamed.update((name, _rename_ballots(getattr(obj, name), m))
                   for name in shape.profiles)
    return replace(obj, distinguished=m.apply(obj.distinguished), **renamed)


@dataclass(frozen=True)
class InheritanceReport:
    constituent_decision: Decision
    hybrid_decision: Decision

    @property
    def equal(self) -> bool:
        return self.constituent_decision.answer == self.hybrid_decision.answer


def inheritance_check(constituents: Sequence[SystemId], index: int,
                      instance: ControlInstance) -> InheritanceReport:
    """Is a constituent's decision preserved under the k*c+i embedding?

    The instance is decided under constituent ``index`` as-is, then renamed
    with c -> k*c + index (which confines every reachable candidate set to
    residue ``index``) and decided under the hybrid of all constituents.
    """
    k = len(constituents)
    base = replace(instance, system=constituents[index])
    embedded = embed_rename(base, RenamingMap.affine(k, index))
    embedded = replace(embedded, system=SystemId("hybrid", tuple(constituents)))
    return InheritanceReport(brute_force_decide(base), brute_force_decide(embedded))


@dataclass(frozen=True)
class AnonymityWitness:
    election: Election
    mapping: dict[int, int]
    expected: frozenset[int]
    actual: frozenset[int]


def anonymity_falsify(sid: SystemId, trials: int,
                      seed: int = 0) -> AnonymityWitness | None:
    """Search random elections and renamings for an anonymity violation.

    Returns the first witness where renaming the candidates does not simply
    rename the winners, or None if no violation shows up.  Finding none is
    evidence, not proof.  Each trial draws up to four candidates and four
    ballots, and renames into the same id range, below 12.
    """
    rng = random.Random(seed)
    for _ in range(trials):
        cands = rng.sample(range(12), rng.randint(1, 4))
        ballots = []
        for _ in range(rng.randint(0, 4)):
            b = cands[:]
            rng.shuffle(b)
            ballots.append(tuple(b))
        e = Election(cands, ballots)
        targets = rng.sample(range(12), len(e.candidates))
        mapping = dict(zip(sorted(e.candidates), targets))
        m = RenamingMap.explicit(mapping)
        expected = frozenset(mapping[c] for c in winners(sid, e))
        actual = winners(sid, embed_rename(e, m))
        if expected != actual:
            return AnonymityWitness(e, mapping, expected, actual)
    return None


@dataclass(frozen=True)
class SpecialReport:
    combined: Election
    delta: int
    combined_winners: frozenset[int]
    winners_after_deleting_clones: frozenset[int]
    winners_after_deleting_originals: frozenset[int]

    @property
    def restores_original(self) -> bool:
        return len(self.winners_after_deleting_clones) == 1

    @property
    def restores_clone(self) -> bool:
        return len(self.winners_after_deleting_originals) == 1


def special_construction(sid: SystemId, e: Election, c: int) -> SpecialReport:
    """Clone the whole election beside itself so nobody can uniquely win.

    Every candidate x gets a clone x + delta, and each voter ranks their
    original order followed by its cloned copy.  The report records the
    combined winner set and what deleting either half restores.
    """
    if not unique_winner(winners(sid, e), c):
        raise PreconditionFailed(f"{c} is not the unique winner of the input election")
    delta = max(e.candidates) + 1
    clones = frozenset(x + delta for x in e.candidates)
    combined = Election(
        e.candidates | clones,
        tuple(b + tuple(x + delta for x in b) for b in e.ballots))
    after_del_clones = winners(sid, combined.restricted(e.candidates))
    after_del_originals = winners(sid, combined.restricted(clones))
    return SpecialReport(combined, delta, winners(sid, combined),
                         after_del_clones, after_del_originals)


def ccac_to_dcdc(instance: AddCandidates, action: AddSet
                 ) -> tuple[DeleteCandidates, DeleteSet]:
    """The deleting-candidates dual of an adding-candidates scenario.

    If adding A turns c into the unique winner, then deleting A from the
    enlarged election dethrones c, and vice versa.
    """
    cands = instance.qualified | action.added
    ballots = tuple(tuple(x for x in b if x in cands) for b in instance.ballots)
    goal = DESTRUCTIVE if instance.goal == CONSTRUCTIVE else CONSTRUCTIVE
    dual = DeleteCandidates(instance.system, cands, instance.distinguished,
                            ballots, len(action.added), goal)
    return dual, DeleteSet(action.added)


def dcdc_to_ccac(instance: DeleteCandidates, action: DeleteSet
                 ) -> tuple[AddCandidates, AddSet]:
    """The adding-candidates dual of a deleting-candidates scenario."""
    goal = DESTRUCTIVE if instance.goal == CONSTRUCTIVE else CONSTRUCTIVE
    dual = AddCandidates(instance.system, instance.candidates - action.deleted,
                         action.deleted, instance.distinguished,
                         instance.ballots, goal)
    return dual, AddSet(action.deleted)


def random_instance(rng: random.Random, shape: str, goal: str, system: SystemId,
                    tie: str = TE, max_candidates: int = 4,
                    max_voters: int = 5) -> ControlInstance:
    """A seeded random control instance of the given shape and goal.

    Every ballot list gets up to ``max_voters`` ballots.  With two candidate
    sets (AC), each candidate other than the distinguished one is qualified
    with probability 1/2.  A limit k is drawn up to the size of what it
    counts, or up to the candidate count when uncapped.
    """
    if shape not in SPECS:
        raise ValueError(f"shape must be one of {SHAPES}")
    spec = SPECS[shape]
    m = rng.randint(1, max_candidates)
    ids = rng.sample(range(9), m)
    cands = frozenset(ids)
    c = rng.choice(ids)
    sizes = [rng.randint(0, max_voters) for _ in spec.profiles]
    if len(spec.sets) == 2:
        qualified = frozenset(x for x in ids if x == c or rng.random() < 0.5)
        fields = dict(zip(spec.sets, (qualified, cands - qualified)))
    else:
        fields = {spec.sets[0]: cands}
    for name, size in zip(spec.profiles, sizes):
        pool = list(cands)
        ballots = []
        for _ in range(size):
            rng.shuffle(pool)
            ballots.append(tuple(pool))
        fields[name] = tuple(ballots)
    if spec.has_k:
        fields["limit"] = rng.randint(0, len(fields[spec.k_cap]) if spec.k_cap else m)
    if spec.has_tie:
        fields["tie"] = tie
    return spec.instance(system=system, distinguished=c, goal=goal, **fields)


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    ok: bool
    detail: str


def replay_recorded_scenarios() -> list[ScenarioResult]:
    """Replay the four recorded two-constituent counterexample scenarios.

    All use hybrid(e_first, e_last) and the single ballot 2 > 1 > 0.
    Raises ReplayMismatch if any recorded outcome fails to reproduce.
    """
    sid = hybrid("e_first", "e_last")
    results = []

    # 1: adding candidate 1 flips routing and crowns 0
    ccac = AddCandidates(sid, frozenset({0, 2}), frozenset({1}), 0,
                         ((2, 1, 0),), CONSTRUCTIVE)
    before = winners(sid, Election({0, 2}, ((2, 0),)))
    after = outcome(ccac, AddSet(frozenset({1})))
    decision = brute_force_decide(ccac)
    ok = (before == frozenset({2}) and after == frozenset({0})
          and decision.answer and decision.witness == AddSet(frozenset({1})))
    results.append(ScenarioResult(
        "add-candidates", ok, f"before={set(before)} after={set(after)}"))

    # 2: the dual deleting-candidates attack dethrones 0
    dcdc, delete = ccac_to_dcdc(ccac, AddSet(frozenset({1})))
    dethroned = not unique_winner(outcome(dcdc, delete), 0)
    started_on_top = unique_winner(
        winners(sid, Election({0, 1, 2}, ((2, 1, 0),))), 0)
    ok = started_on_top and dethroned and brute_force_decide(dcdc).answer
    results.append(ScenarioResult(
        "delete-candidates-dual", ok, f"dethroned={dethroned}"))

    # 3: partition ({0,1}, {2}) makes 2 the unique winner (all four variants)
    finals = []
    for cls in (PartitionCandidates, RunoffPartitionCandidates):
        for tie in (TE, TP):
            inst = cls(sid, frozenset({0, 1, 2}), 2, ((2, 1, 0),), tie, CONSTRUCTIVE)
            finals.append(outcome(inst, CandidatePartition(
                frozenset({0, 1}), frozenset({2}))))
    ok = all(f == frozenset({2}) for f in finals)
    results.append(ScenarioResult(
        "partition-crowns-2", ok, f"finals={[set(f) for f in finals]}"))

    # 4: the same partition strips 0 of its unique win
    stripped = []
    for cls in (PartitionCandidates, RunoffPartitionCandidates):
        for tie in (TE, TP):
            inst = cls(sid, frozenset({0, 1, 2}), 0, ((2, 1, 0),), tie, DESTRUCTIVE)
            stripped.append(goal_met(inst, CandidatePartition(
                frozenset({0, 1}), frozenset({2}))))
    ok = all(stripped)
    results.append(ScenarioResult(
        "partition-dethrones-0", ok, f"goal_met={stripped}"))

    bad = [r for r in results if not r.ok]
    if bad:
        raise ReplayMismatch("; ".join(f"{r.name}: {r.detail}" for r in bad))
    return results
