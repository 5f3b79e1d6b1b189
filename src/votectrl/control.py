"""Control instances, chair actions, and outcome evaluation.

A control instance pairs an election system with an election, a
distinguished candidate, and one of seven structural attack shapes; with
constructive/destructive goals this yields the twenty control types
(partition types additionally carry a TE/TP tie model).  ``outcome``
applies one concrete chair action and returns the final winner set;
``goal_met`` tests the chair's goal on it.  Everything that depends on
the shape reads it from one table, ``SPECS``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations
from math import comb
from operator import itemgetter
from typing import Callable, Iterator, Sequence, Union

from .core import (
    Ballot, _content_lines, _parse_candidates, check_ballots, format_ballot,
    parse_ballot_line, restrict, unique_winner,
)
from .errors import BoundViolation, ParseError, ShapeMismatch
from .systems import SystemId, format_system, parse_system, raw_winners

CONSTRUCTIVE = "constructive"
DESTRUCTIVE = "destructive"
TE = "TE"
TP = "TP"


class _Instance:
    """Validation and the type code shared by the seven instance classes."""

    def __post_init__(self):
        shape = SHAPE_OF[type(self)]
        if self.goal not in (CONSTRUCTIVE, DESTRUCTIVE):
            raise ValueError(f"bad goal {self.goal!r}")
        if shape.has_tie and self.tie not in (TE, TP):
            raise ValueError(f"bad tie model {self.tie!r}")
        universe = frozenset()
        for name in shape.sets:
            members = frozenset(getattr(self, name))
            object.__setattr__(self, name, members)
            if universe & members:
                raise ValueError(f"{' and '.join(shape.sets)} must be disjoint")
            universe |= members
        if self.distinguished not in getattr(self, shape.sets[0]):
            raise ValueError(f"distinguished candidate must be in {shape.sets[0]}")
        if shape.has_k:
            cap = len(getattr(self, shape.k_cap)) if shape.k_cap else None
            if self.limit < 0 or (cap is not None and self.limit > cap):
                raise ValueError(f"limit {self.limit} is outside 0..{'' if cap is None else cap}")
        for name in shape.profiles:
            object.__setattr__(self, name, check_ballots(getattr(self, name), universe))

    @property
    def type_code(self) -> str:
        goal = "CC" if self.goal == CONSTRUCTIVE else "DC"
        return goal + SHAPE_OF[type(self)].code


@dataclass(frozen=True)
class AddCandidates(_Instance):
    system: SystemId
    qualified: frozenset[int]
    spoilers: frozenset[int]
    distinguished: int
    ballots: tuple[Ballot, ...]  # over qualified ∪ spoilers
    goal: str


@dataclass(frozen=True)
class DeleteCandidates(_Instance):
    system: SystemId
    candidates: frozenset[int]
    distinguished: int
    ballots: tuple[Ballot, ...]
    limit: int
    goal: str


@dataclass(frozen=True)
class PartitionCandidates(_Instance):
    system: SystemId
    candidates: frozenset[int]
    distinguished: int
    ballots: tuple[Ballot, ...]
    tie: str
    goal: str


@dataclass(frozen=True)
class RunoffPartitionCandidates(_Instance):
    system: SystemId
    candidates: frozenset[int]
    distinguished: int
    ballots: tuple[Ballot, ...]
    tie: str
    goal: str


@dataclass(frozen=True)
class AddVoters(_Instance):
    system: SystemId
    candidates: frozenset[int]
    distinguished: int
    registered: tuple[Ballot, ...]
    unregistered: tuple[Ballot, ...]
    limit: int
    goal: str

    @property
    def ballots(self) -> tuple[Ballot, ...]:
        return self.registered


@dataclass(frozen=True)
class DeleteVoters(_Instance):
    system: SystemId
    candidates: frozenset[int]
    distinguished: int
    ballots: tuple[Ballot, ...]
    limit: int
    goal: str


@dataclass(frozen=True)
class PartitionVoters(_Instance):
    system: SystemId
    candidates: frozenset[int]
    distinguished: int
    ballots: tuple[Ballot, ...]
    tie: str
    goal: str


ControlInstance = Union[
    AddCandidates, DeleteCandidates, PartitionCandidates, RunoffPartitionCandidates,
    AddVoters, DeleteVoters, PartitionVoters,
]


# --- chair actions ---------------------------------------------------------


@dataclass(frozen=True)
class AddSet:
    added: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "added", frozenset(self.added))


@dataclass(frozen=True)
class DeleteSet:
    deleted: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "deleted", frozenset(self.deleted))


@dataclass(frozen=True)
class CandidatePartition:
    """Ordered pair (side1, side2); side1 faces elimination first in PC."""

    side1: frozenset[int]
    side2: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "side1", frozenset(self.side1))
        object.__setattr__(self, "side2", frozenset(self.side2))
        if self.side1 & self.side2:
            raise ValueError("partition sides must be disjoint")


@dataclass(frozen=True)
class VoterPartition:
    """Ballot indices assigned to side 1; the rest go to side 2."""

    side1: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "side1", frozenset(self.side1))


@dataclass(frozen=True)
class AddVoterSet:
    added: frozenset[int]  # indices into the unregistered pool

    def __post_init__(self):
        object.__setattr__(self, "added", frozenset(self.added))


@dataclass(frozen=True)
class DeleteVoterSet:
    deleted: frozenset[int]  # indices into the ballot list

    def __post_init__(self):
        object.__setattr__(self, "deleted", frozenset(self.deleted))


ControlAction = Union[
    AddSet, DeleteSet, CandidatePartition, VoterPartition, AddVoterSet, DeleteVoterSet,
]


# --- final elections and bound checks, one of each per shape ---------------
#
# A final election runs on the set the chair chose, with no bound checks; a
# check raises BoundViolation on an action outside the instance's bounds and
# returns the set it chose.  Candidate-set elections go through ``evaluate``;
# elections over a subset of the voters call ``raw_winners`` directly.


class CachedEvaluator:
    """``evaluate(S)``: the winners of one instance's own ballot list
    restricted to the candidate set ``S``, memoized by ``S``.

    The memo is valid only for the instance it was built from.  On a miss,
    one ``restrict`` call projects the distinct ballots, laid end to end,
    onto ``S``.  Every ballot ranks the whole universe, of which ``S`` is a
    subset, so the result splits into rows of ``len(S)``, laid back out in
    the original ballot order, which several rules read.
    """

    def __init__(self, instance: ControlInstance):
        self.system = instance.system
        self._memo: dict[frozenset[int], frozenset[int]] = {}
        profile: dict[Ballot, int] = {}
        order = [profile.setdefault(b, len(profile)) for b in instance.ballots]
        self._flat = list(chain.from_iterable(profile))
        self._empty_rows = [()] * len(profile)
        # itemgetter(i) returns a row, not a tuple; one ballot or none is already in order
        self._layout = itemgetter(*order) if len(order) > 1 else tuple

    def __call__(self, cands: frozenset[int]) -> frozenset[int]:
        ws = self._memo.get(cands)
        if ws is None:
            flat = iter(restrict(self._flat, cands))
            rows = list(zip(*[flat] * len(cands))) or self._empty_rows
            ws = self._memo[cands] = raw_winners(self.system, cands, self._layout(rows))
        return ws


def _survivors(tie: str, ws: frozenset[int]) -> frozenset[int]:
    """A subelection's winners that go on: under TE only a unique winner."""
    return ws if tie != TE or len(ws) == 1 else frozenset()


def _add_candidates(instance, added, evaluate):
    return evaluate(instance.qualified.union(added))


def _delete_candidates(instance, deleted, evaluate):
    return evaluate(instance.candidates.difference(deleted))


def _partition_candidates(instance, side1, evaluate):
    return evaluate(_survivors(instance.tie, evaluate(side1)) | (instance.candidates - side1))


def _runoff_partition_candidates(instance, side1, evaluate):
    s1 = _survivors(instance.tie, evaluate(side1))
    return evaluate(s1 | _survivors(instance.tie, evaluate(instance.candidates - side1)))


def _add_voters(instance, added, evaluate):
    ballots = instance.registered + tuple(instance.unregistered[i] for i in sorted(added))
    return raw_winners(instance.system, instance.candidates, ballots)


def _delete_voters(instance, deleted, evaluate):
    ballots = tuple(b for i, b in enumerate(instance.ballots) if i not in deleted)
    return raw_winners(instance.system, instance.candidates, ballots)


def _partition_voters(instance, side1, evaluate):
    sid, cands = instance.system, instance.candidates
    v1 = tuple(b for i, b in enumerate(instance.ballots) if i in side1)
    v2 = tuple(b for i, b in enumerate(instance.ballots) if i not in side1)
    return evaluate(_survivors(instance.tie, raw_winners(sid, cands, v1))
                    | _survivors(instance.tie, raw_winners(sid, cands, v2)))


def _added_spoilers(instance, action):
    if not action.added <= instance.spoilers:
        raise BoundViolation("can only add spoiler candidates")
    return action.added


def _deleted_candidates(instance, action):
    if not action.deleted <= instance.candidates:
        raise BoundViolation("can only delete existing candidates")
    if len(action.deleted) > instance.limit:
        raise BoundViolation(f"deleted {len(action.deleted)} > limit {instance.limit}")
    if instance.goal == DESTRUCTIVE and instance.distinguished in action.deleted:
        raise BoundViolation("destructive control may not delete the distinguished candidate")
    return action.deleted


def _candidate_side1(instance, action):
    if action.side1 | action.side2 != instance.candidates:
        raise BoundViolation("partition sides must cover the candidate set")
    return action.side1


def _added_voters(instance, action):
    if not all(0 <= i < len(instance.unregistered) for i in action.added):
        raise BoundViolation("added voter index out of range")
    if len(action.added) > instance.limit:
        raise BoundViolation(f"added {len(action.added)} > limit {instance.limit}")
    return action.added


def _deleted_voters(instance, action):
    if not all(0 <= i < len(instance.ballots) for i in action.deleted):
        raise BoundViolation("deleted voter index out of range")
    if len(action.deleted) > instance.limit:
        raise BoundViolation(f"deleted {len(action.deleted)} > limit {instance.limit}")
    return action.deleted


def _voter_side1(instance, action):
    if not all(0 <= i < len(instance.ballots) for i in action.side1):
        raise BoundViolation("partition voter index out of range")
    return action.side1


# --- canonical enumerations, one per shape ---------------------------------
#
# Each returns the number of legal actions, for the budget check, and an
# iterator over the sets they choose in canonical order: subsets by size
# then lexicographically, partitions by binary mask, ascending.


def _subsets(pool: Sequence, max_size: int) -> tuple[int, Iterator[tuple]]:
    """The subsets of at most ``max_size`` items of a pool, as tuples in
    canonical order: by size, then lexicographically by pool position."""
    sizes = range(min(max_size, len(pool)) + 1)
    return (sum(comb(len(pool), s) for s in sizes),
            chain.from_iterable(combinations(pool, s) for s in sizes))


def _sides(order: Sequence[int]) -> Iterator[frozenset[int]]:
    """Side-1 sets by ascending mask, bit j standing for ``order[j]``, built
    only once the first is asked for: one union each of a set over the high
    half of ``order`` and one over the low half, which counts fastest."""
    half = len(order) // 2
    low, high = [frozenset()], [frozenset()]
    for sets, part in ((low, order[:half]), (high, order[half:])):
        for c in part:
            sets += [s | {c} for s in sets]
    yield from (lo | hi for hi in high for lo in low)


def _add_sets(instance):
    return _subsets(sorted(instance.spoilers), len(instance.spoilers))


def _delete_sets(instance):
    spared = {instance.distinguished} if instance.goal == DESTRUCTIVE else set()
    return _subsets(sorted(instance.candidates - spared), instance.limit)


def _candidate_sides(instance):
    return 2 ** len(instance.candidates), _sides(sorted(instance.candidates))


def _voter_sets(instance):
    """Index subsets of the ballot list that bounds k: ``unregistered`` or ``ballots``."""
    return _subsets(range(len(getattr(instance, shape_of(instance).k_cap))), instance.limit)


def _voter_sides(instance):
    return 2 ** len(instance.ballots), _sides(range(len(instance.ballots)))


# --- the shape table -------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """One of the seven structural attack shapes: its instance and action
    classes, the fields that hold candidate sets and ballots, whether it has
    a limit k and a tie model, the canonical enumeration of the sets its
    actions choose, its bound check and its final election.  Validation,
    ``outcome``, the text format, renaming and the solvers read these."""

    code: str
    instance: type
    action: type
    sets: tuple[str, ...]      # candidate-set fields; the first holds the distinguished
    profiles: tuple[str, ...]  # ballot-list fields, all over the union of the sets
    has_k: bool
    has_tie: bool
    k_cap: str | None          # the field whose length bounds k, if any
    choices: Callable          # instance -> (count, canonical chosen-set iterator)
    check: Callable            # (instance, action) -> its chosen set, or BoundViolation
    final: Callable            # (instance, chosen set, CachedEvaluator) -> final winners

    @cached_property
    def directives(self) -> frozenset[str]:
        """The text-format directives an instance of this shape takes."""
        return frozenset(("type", "system", "distinguished",
                          *(_DIRECTIVE[name] for name in self.sets + self.profiles),
                          *("k",) * self.has_k, *("tie",) * self.has_tie))

    def act(self, instance: ControlInstance, chosen) -> ControlAction:
        """The action choosing ``chosen``; a candidate partition's side 2 is the rest."""
        if self.action is CandidatePartition:
            return CandidatePartition(chosen, instance.candidates - chosen)
        return self.action(chosen)


SPECS: dict[str, Shape] = {s.code: s for s in (
    Shape("AC", AddCandidates, AddSet, ("qualified", "spoilers"), ("ballots",),
          False, False, None, _add_sets, _added_spoilers, _add_candidates),
    Shape("DC", DeleteCandidates, DeleteSet, ("candidates",), ("ballots",),
          True, False, None, _delete_sets, _deleted_candidates, _delete_candidates),
    Shape("PC", PartitionCandidates, CandidatePartition, ("candidates",), ("ballots",),
          False, True, None, _candidate_sides, _candidate_side1, _partition_candidates),
    Shape("RPC", RunoffPartitionCandidates, CandidatePartition, ("candidates",),
          ("ballots",), False, True, None, _candidate_sides, _candidate_side1,
          _runoff_partition_candidates),
    Shape("AV", AddVoters, AddVoterSet, ("candidates",), ("registered", "unregistered"),
          True, False, "unregistered", _voter_sets, _added_voters, _add_voters),
    Shape("DV", DeleteVoters, DeleteVoterSet, ("candidates",), ("ballots",),
          True, False, "ballots", _voter_sets, _deleted_voters, _delete_voters),
    Shape("PV", PartitionVoters, VoterPartition, ("candidates",), ("ballots",),
          False, True, None, _voter_sides, _voter_side1, _partition_voters),
)}
SHAPES = tuple(SPECS)
SHAPE_OF: dict[type, Shape] = {s.instance: s for s in SPECS.values()}
ALL_TYPE_CODES = tuple(g + s for g in ("CC", "DC") for s in SHAPES)


def shape_of(instance: ControlInstance) -> Shape:
    """The table entry for a control instance's class."""
    try:
        return SHAPE_OF[type(instance)]
    except KeyError:
        raise ShapeMismatch(f"unknown instance type {type(instance).__name__}") from None


# --- outcome evaluation ----------------------------------------------------


def outcome(instance: ControlInstance, action: ControlAction) -> frozenset[int]:
    """Winner set after the chair applies ``action`` to ``instance``."""
    shape = shape_of(instance)
    if type(action) is not shape.action:
        raise ShapeMismatch(
            f"{type(action).__name__} does not fit {type(instance).__name__}")
    return shape.final(instance, shape.check(instance, action), CachedEvaluator(instance))


def goal_met(instance: ControlInstance, action: ControlAction) -> bool:
    """Does ``action`` achieve the chair's goal for the distinguished candidate?"""
    won = unique_winner(outcome(instance, action), instance.distinguished)
    return won if instance.goal == CONSTRUCTIVE else not won


def with_goal(instance: ControlInstance, goal: str) -> ControlInstance:
    return replace(instance, goal=goal)


# --- text format -----------------------------------------------------------

# the directive that carries each candidate-set and ballot-list field
_DIRECTIVE = {
    "qualified": "candidates", "candidates": "candidates", "spoilers": "spoilers",
    "ballots": "ballot", "registered": "ballot", "unregistered": "unregistered-ballot",
}


def parse_instance(text: str) -> ControlInstance:
    """Parse the line-based control-instance format.  Ballot lines repeat;
    any other directive appears once, and only if the shape takes it."""
    fields: dict[str, str] = {}
    lists: dict[str, list] = {}
    for lineno, line in _content_lines(text):
        key, _, body = line.partition(" ")
        body = body.strip()
        if key in ("ballot", "unregistered-ballot"):
            lists.setdefault(key, []).append(parse_ballot_line(body, lineno))
        elif key in fields or key in lists:
            raise ParseError(f"line {lineno}: repeated '{key}' line")
        elif key in ("candidates", "spoilers"):
            lists[key] = _parse_candidates(body.split(), lineno)
        elif key in ("type", "system", "distinguished", "k", "tie"):
            fields[key] = body
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")

    for required in ("type", "system", "distinguished"):
        if required not in fields:
            raise ParseError(f"missing '{required}' line")
    code = fields["type"].upper()
    if code not in ALL_TYPE_CODES:
        raise ParseError(f"unknown control type {code!r}")
    shape = SPECS[code[2:]]
    stray = (fields.keys() | lists.keys()) - shape.directives
    if stray:
        raise ParseError(f"{code} instances take no '{min(stray)}' line")
    system = parse_system(fields["system"])
    try:
        distinguished = int(fields["distinguished"])
    except ValueError as exc:
        raise ParseError("bad distinguished candidate id") from exc
    # the instance freezes the candidate sets and the ballot lists
    args = {name: lists.get(_DIRECTIVE[name], []) for name in shape.sets + shape.profiles}
    if shape.has_k:
        if "k" not in fields:
            raise ParseError(f"{shape.code} instances need a 'k' line")
        try:
            args["limit"] = int(fields["k"])
        except ValueError as exc:
            raise ParseError("bad limit k") from exc
    if shape.has_tie:
        args["tie"] = fields.get("tie", TE).upper()
    goal = CONSTRUCTIVE if code.startswith("CC") else DESTRUCTIVE
    try:
        return shape.instance(system=system, distinguished=distinguished,
                              goal=goal, **args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_instance(instance: ControlInstance) -> str:
    shape = shape_of(instance)
    lines = [f"type {instance.type_code}",
             f"system {format_system(instance.system)}",
             f"distinguished {instance.distinguished}"]
    if shape.has_k:
        lines.append(f"k {instance.limit}")
    if shape.has_tie:
        lines.append(f"tie {instance.tie}")
    for name in shape.sets:
        lines.append(f"{_DIRECTIVE[name]} "
                     + " ".join(map(str, sorted(getattr(instance, name)))))
    for name in shape.profiles:
        lines.extend(f"{_DIRECTIVE[name]} {format_ballot(b)}"
                     for b in getattr(instance, name))
    return "\n".join(lines) + "\n"
