"""Answers computed apart from the program, and the checks built on them.

The exact-cover and vertex-cover enumerators below share no code with
``votectrl.reductions`` (whose oracles enumerate subfamilies by mask and
vertex subsets with ``itertools.combinations``): exact cover is a
backtracking search on the smallest uncovered element, vertex cover a
branching search on an uncovered edge, and exact-size covers a popcount
scan over bit masks.  ``reference_decide`` enumerates chair actions in the
canonical order that ``brute_force_decide`` documents and tests each with
the plain ``control.goal_met``, so it checks both the answer and the
witness of a small instance.
"""

from __future__ import annotations

from itertools import combinations

from votectrl import control
from votectrl.control import (
    AddCandidates, AddSet, AddVoters, AddVoterSet, CandidatePartition,
    DeleteCandidates, DeleteSet, DeleteVoters, DeleteVoterSet,
    PartitionCandidates, PartitionVoters, RunoffPartitionCandidates,
    VoterPartition, DESTRUCTIVE,
)
from votectrl.errors import VotectrlError


# --- exact cover ------------------------------------------------------------


def exact_cover_exists(base, sets) -> bool:
    """Can some of ``sets`` cover every element of ``base`` exactly once?"""
    sets = [frozenset(s) for s in sets]

    def search(uncovered: frozenset) -> bool:
        if not uncovered:
            return True
        e = min(uncovered)
        return any(search(uncovered - s) for s in sets
                   if e in s and s <= uncovered)

    return search(frozenset(base))


def is_exact_cover(base, sets) -> bool:
    """Do ``sets`` (a multiset) cover ``base`` with no element twice?"""
    sets = [frozenset(s) for s in sets]
    union = frozenset().union(*sets)
    return union == frozenset(base) and sum(map(len, sets)) == len(union)


# --- vertex cover -----------------------------------------------------------


def has_cover_at_most(edges, k: int) -> bool:
    """Is there a vertex cover of at most ``k`` vertices?  (Edge branching.)"""
    edges = [tuple(e) for e in edges]
    if not edges:
        return k >= 0
    if k <= 0:
        return False
    u, v = edges[0]
    return any(has_cover_at_most([e for e in edges if w not in e], k - 1)
               for w in (u, v))


def has_cover_of_size(vertices, edges, size: int) -> bool:
    """Is there a vertex cover of exactly ``size`` vertices?  (Mask scan.)"""
    order = sorted(vertices)
    bit = {v: 1 << i for i, v in enumerate(order)}
    edge_masks = [sum(bit[v] for v in e) for e in edges]
    return any(bin(mask).count("1") == size
               and all(mask & em for em in edge_masks)
               for mask in range(1 << len(order)))


# --- reference action enumerator ---------------------------------------------


def _by_size(pool, max_size: int):
    for size in range(min(max_size, len(pool)) + 1):
        yield from combinations(pool, size)


def canonical_actions(inst):
    """Every legal chair action of ``inst``, in brute-force canonical order."""
    if isinstance(inst, AddCandidates):
        return (AddSet(s) for s in _by_size(sorted(inst.spoilers), len(inst.spoilers)))
    if isinstance(inst, DeleteCandidates):
        pool = sorted(inst.candidates)
        if inst.goal == DESTRUCTIVE:
            pool.remove(inst.distinguished)
        return (DeleteSet(s) for s in _by_size(pool, inst.limit))
    if isinstance(inst, (PartitionCandidates, RunoffPartitionCandidates)):
        order = sorted(inst.candidates)
        return (CandidatePartition(
                    {c for j, c in enumerate(order) if mask >> j & 1},
                    {c for j, c in enumerate(order) if not mask >> j & 1})
                for mask in range(1 << len(order)))
    if isinstance(inst, AddVoters):
        return (AddVoterSet(s) for s in _by_size(range(len(inst.unregistered)), inst.limit))
    if isinstance(inst, DeleteVoters):
        return (DeleteVoterSet(s) for s in _by_size(range(len(inst.ballots)), inst.limit))
    if isinstance(inst, PartitionVoters):
        n = len(inst.ballots)
        return (VoterPartition({i for i in range(n) if mask >> i & 1})
                for mask in range(1 << n))
    raise TypeError(f"no reference enumeration for {type(inst).__name__}")


def reference_decide(inst):
    """(answer, first witness) by plain enumeration; witness None on NO."""
    for action in canonical_actions(inst):
        if control.goal_met(inst, action):
            return True, action
    return False, None


def rename_action(action, k: int, i: int):
    """The action with every candidate id c renamed k*c+i; voter actions keep
    their ballot indices."""
    f = lambda ids: frozenset(k * c + i for c in ids)
    if isinstance(action, AddSet):
        return AddSet(f(action.added))
    if isinstance(action, DeleteSet):
        return DeleteSet(f(action.deleted))
    if isinstance(action, CandidatePartition):
        return CandidatePartition(f(action.side1), f(action.side2))
    return action


def witness_problem(inst, decision) -> str | None:
    """Why a Decision's witness is unsound for ``inst``, or None if it is sound."""
    if not decision.answer:
        return None if decision.witness is None else "NO answer carries a witness"
    try:
        ok = control.goal_met(inst, decision.witness)
    except (VotectrlError, ValueError) as exc:  # shape or bound violated
        return f"YES witness is not a legal action: {exc!r}"
    return None if ok else "YES witness does not meet the goal"
