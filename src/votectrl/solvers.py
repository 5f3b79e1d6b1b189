"""Decision procedures for control instances.

``brute_force_decide`` is the ground truth: it tries every legal chair
action in a fixed canonical order (subsets by size then lexicographically;
partitions by binary mask, ascending) and reports the first action that
meets the goal.  Voter control (AV, DV, PV) keeps the candidate set, so
when that set routes to a voter-anonymous rule the search judges its
elections from packed counts through the ``codes`` of the rule's counted
form (``systems.Rule.form``), and reports the same answer and witness.

The remaining functions are the polynomial-time deciders for the specific
system/control-type pairs that admit them; each is checked against the
brute force in the test suite.  The hybrid ones run the brute force on the
hybrid itself wherever every reachable candidate set routes to one
constituent, which the brute force already follows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, islice
from math import prod
from typing import Callable

from .control import (
    AddCandidates, AddSet, AddVoters, CachedEvaluator, CandidatePartition,
    ControlAction, ControlInstance, DeleteCandidates, DeleteSet, DeleteVoters,
    PartitionCandidates, PartitionVoters, RunoffPartitionCandidates, Shape,
    VoterPartition, CONSTRUCTIVE, DESTRUCTIVE, SPECS, _subsets, _survivors, goal_met,
    shape_of,
)
from .core import restrict, unique_winner
from .errors import BudgetExceeded, WrongSystem
# raw_winners is unused here, but the benchmark's tracer wraps it by this name
from .systems import RULES, Rule, _triangular_roots, raw_winners, route

DEFAULT_BUDGET = 2 ** 24


@dataclass(frozen=True)
class Decision:
    answer: bool
    witness: ControlAction | None = None


def _classes(groups: list[list[int]], units: list[int]) -> tuple[list[int], list[int]]:
    """Each count class's representative mask, which sends the lowest
    indices of each group to side 1, and its packed sum, in ``product``
    order of the groups' counts."""
    masks, sums = [0], [0]
    for ix, unit in zip(groups, units):
        row, steps = [0], [0]
        for i in ix:
            row.append(row[-1] | 1 << i)
            steps.append(steps[-1] + unit)
        masks = [mask | r for mask in masks for r in row]
        sums = [v + step for v in sums for step in steps]
    return masks, sums


def _partition_voters_anonymous(instance: PartitionVoters, evaluate,
                                budget: int) -> Decision:
    """Voter partitions whose candidate set routes to a voter-anonymous rule.

    Identical ballots are interchangeable: only the count of each group
    sent to side 1 matters.  A class (count vector) is first met in mask
    order at its representative mask, so walking the classes in the order
    of their representatives, the first winner is the canonical witness.

    That order, proved: the lowest groups, while they are index intervals
    with few classes in all, form the inner block; no group crosses the cut
    above them.  Every outer index exceeds every inner one, so classes order
    by outer part, then inner part.  Outer parts are sorted.  Inner parts
    come in ``product`` order with the highest group most significant: the
    highest interval group where two classes differ decides, and there more
    copies set a higher bit.  A block, one outer part with every inner part,
    packs as the outer part's sum plus each inner part's sum.

    Swapping the sides changes no outcome, so a class wins exactly when its
    complement does; a class packed as v has its complement at full - v,
    where full packs every ballot.  A block is one lane int, its complement
    block full in every lane less it, and one ``codes`` call classifies
    each.  The new (side-1, side-2) code pairs are judged in order through
    ``evaluate`` up to the first winner, whose lane is its inner part; a
    block whose complement block came first is skipped, so a no-instance
    classifies each class once.
    """
    groups: dict[tuple, list[int]] = {}
    for i, b in enumerate(instance.ballots):
        groups.setdefault(b, []).append(i)
    total = prod(len(ix) + 1 for ix in groups.values())
    if total > budget:
        raise BudgetExceeded(f"{total} voter-partition classes exceed budget {budget}")

    # the empty side 1 comes first in mask order; trying it alone spares
    # building the classes whenever doing nothing already meets the goal
    want = instance.goal == CONSTRUCTIVE
    if unique_winner(SPECS["PV"].final(instance, frozenset(), evaluate),
                     instance.distinguished) == want:
        return Decision(True, VoterPartition(frozenset()))

    # both subelections keep the full candidate set, so the routed rule is fixed
    cands, n = instance.candidates, len(instance.ballots)
    inner, classes, cut = [], 1, 0
    for ix in groups.values():
        classes *= len(ix) + 1
        if ix[0] != cut or ix[-1] != cut + len(ix) - 1 or classes > 256:
            break
        inner.insert(0, ix)   # highest group first, most significant
        cut += len(ix)
    outer = [ix for ix in groups.values() if ix[0] >= cut][::-1]
    form = RULES[route(instance.system, cands).tag].form(
        cands, tuple(instance.ballots[ix[0]] for ix in inner + outer), n)
    units = form.units
    full = sum(unit * len(ix) for unit, ix in zip(units, inner + outer))
    masks, vals = _classes(outer, units[len(inner):])
    inner_masks, inner_sums = _classes(inner, units)
    count, last = len(inner_sums), len(masks) - 1
    ones = form.ones(count)
    block, whole = form.lanes(inner_sums), full * ones

    tie, lost = instance.tie, set()
    judged = bytearray(len(masks))
    for o in sorted(range(len(masks)), key=masks.__getitem__):
        if judged[last - o]:
            continue
        judged[o] = 1
        lanes = block + vals[o] * ones
        codes, decode = form.codes(lanes, count)
        comps, _ = form.codes(whole - lanes, count)
        for pair in dict.fromkeys(zip(codes, comps)):
            if pair in lost:
                continue
            if unique_winner(evaluate(_survivors(tie, decode(pair[0]))
                                      | _survivors(tie, decode(pair[1]))),
                             instance.distinguished) == want:
                best = masks[o] | inner_masks[list(zip(codes, comps)).index(pair)]
                side1 = frozenset(i for i in range(n) if best >> i & 1)
                return Decision(True, VoterPartition(side1))
            lost.update((pair, pair[::-1]))
    return Decision(False, None)


def _voters_counted(instance: AddVoters | DeleteVoters, shape: Shape, rule: Rule,
                    budget: int) -> Decision:
    """Adding or deleting voters under a routed voter-anonymous rule.

    The chosen subsets come in the canonical order of ``_subsets``, as
    tuples of packed units, one unit per pool ballot.  A subset's election
    packs to the registered ballots plus its units (adding) or to all the
    ballots minus its units (deleting), so each costs one sum.  Each chunk
    of sums is laid into lanes and classified by one call of the counted
    form's ``codes``, and the first code in the chunk that meets the goal
    names the witness by its lane.
    """
    adding = shape.code == "AV"
    pool = instance.unregistered if adding else instance.ballots
    fixed = instance.registered if adding else ()
    distinct = tuple(dict.fromkeys(fixed + pool))
    form = rule.form(instance.candidates, distinct,
                     len(fixed) + instance.limit if adding else len(pool))
    unit_of = dict(zip(distinct, form.units))
    pool_units = [unit_of[b] for b in pool]
    count, chosen = _subsets(pool_units, instance.limit)
    if count > budget:
        raise BudgetExceeded(f"{count} {shape.code} actions exceed budget {budget}")
    if adding:
        packed = map(sum(map(unit_of.__getitem__, fixed)).__add__, map(sum, chosen))
    else:
        packed = map(sum(pool_units).__sub__, map(sum, chosen))

    want = instance.goal == CONSTRUCTIVE
    # chunks double from 16 sums up to 4,096: a witness among the first
    # subsets costs little, and memory stays bounded on a long search
    done, size = 0, 16
    while chunk := list(islice(packed, size)):
        codes, decode = form.codes(form.lanes(chunk), len(chunk))
        for code in dict.fromkeys(codes):
            if unique_winner(decode(code), instance.distinguished) == want:
                skip = done + list(codes).index(code)
                witness = next(islice(shape.choices(instance)[1], skip, None))
                return Decision(True, shape.act(instance, witness))
        done += len(chunk)
        size = min(2 * size, 4096)
    return Decision(False, None)


def brute_force_decide(instance: ControlInstance,
                       budget: int = DEFAULT_BUDGET) -> Decision:
    """Exhaustively search all legal chair actions for the instance's goal.

    Every path gives the canonical first-success witness.  Voter control
    never changes the candidate set; when that set routes to a
    voter-anonymous rule, AV and DV take ``_voters_counted`` and PV the
    count-class search, whose final run-off is evaluated on the real ballot
    list.  Everything else runs the shape's final election on each legal
    set the enumeration yields, and builds an action only for the witness.
    """
    shape = shape_of(instance)
    if shape.code in ("AV", "DV", "PV"):
        # voter control runs its (sub)elections on the full candidate set
        rule = RULES[route(instance.system, instance.candidates).tag]
        if rule.voter_anonymous:
            if shape.code == "PV":
                return _partition_voters_anonymous(instance, CachedEvaluator(instance), budget)
            return _voters_counted(instance, shape, rule, budget)
    count, choices = shape.choices(instance)
    if count > budget:
        raise BudgetExceeded(f"{count} {shape.code} actions exceed budget {budget}")
    evaluate, want = CachedEvaluator(instance), instance.goal == CONSTRUCTIVE
    for chosen in choices:
        if unique_winner(shape.final(instance, chosen, evaluate), instance.distinguished) == want:
            return Decision(True, shape.act(instance, chosen))
    return Decision(False, None)


Decider = Callable[[ControlInstance], Decision]


def route_and_solve_voters(instance: ControlInstance) -> Decision:
    """Adding or deleting voters on a hybrid: brute force on the hybrid itself.

    Neither changes the candidate set, so every election the instance can
    produce routes to one constituent, and the search on the hybrid decides
    the instance as that constituent would, with no copy of the instance.
    Partitioning voters is not covered: its final run-off is over the
    subelection survivors, which can route elsewhere.
    """
    if not isinstance(instance, (AddVoters, DeleteVoters)):
        raise WrongSystem("route_and_solve_voters handles adding and deleting voters only")
    if not instance.system.is_hybrid:
        raise WrongSystem("instance system must be a hybrid")
    return brute_force_decide(instance)


def ccac_hybrid_poly(instance: AddCandidates) -> Decision:
    """Control by adding candidates on a hybrid, by case analysis on residues.

    Cases 1 and 2: a mixed-residue qualified set, or a uniform residue q
    with every spoiler congruent to q -- every reachable candidate set
    routes to one constituent (the default, or constituent q), so brute
    force on the hybrid itself decides the instance.  Case 3: uniform q with
    off-residue spoilers -- first try the residue-q spoilers alone, which
    route to constituent q, then force in each off-residue spoiler d (which
    flips routing to the default) and decide with d qualified.
    """
    if not isinstance(instance, AddCandidates):
        raise WrongSystem("ccac_hybrid_poly handles adding candidates only")
    sid = instance.system
    if not sid.is_hybrid:
        raise WrongSystem("instance system must be a hybrid")

    k = len(sid.constituents)
    q_residues = {x % k for x in instance.qualified}
    off = sorted(s for s in instance.spoilers if s % k not in q_residues)
    if len(q_residues) > 1 or not off:
        return brute_force_decide(instance)

    s_q = instance.spoilers - frozenset(off)
    kept = instance.qualified | s_q
    step1 = brute_force_decide(replace(
        instance, spoilers=s_q,
        ballots=tuple(restrict(b, kept) for b in instance.ballots)))
    if step1.answer:
        return step1
    for d in off:
        sub = brute_force_decide(replace(
            instance, qualified=instance.qualified | {d},
            spoilers=instance.spoilers - {d}))
        if sub.answer:
            assert isinstance(sub.witness, AddSet)
            return Decision(True, AddSet(sub.witness.added | {d}))
    return Decision(False, None)


def e1_prefix_ccdc_poly(instance: DeleteCandidates) -> Decision:
    """Constructive deleting-candidates for the first-two-voters prefix rule."""
    if instance.type_code != "CCDC" or instance.system.tag != "e1_prefix":
        raise WrongSystem("expects constructive deleting candidates on e1_prefix")
    if len(instance.ballots) < 2:
        return Decision(False, None)
    c = instance.distinguished
    b1, b2 = instance.ballots[0], instance.ballots[1]
    c1 = frozenset(b1[:b1.index(c)])
    c2 = frozenset(b2[:b2.index(c)])
    union = c1 | c2
    k = instance.limit
    if len(union) <= k:
        return Decision(True, DeleteSet(union))
    if len(union) > k + 1:
        return Decision(False, None)
    # ||union|| = k + 1: keep exactly one second-voter blocker d and check
    # whether c still ends up first or second on every ballot
    for d in sorted(c2):
        action = DeleteSet(union - {d})
        if goal_met(instance, action):
            return Decision(True, action)
    return Decision(False, None)


def e1_tri_ccrpc_poly(instance: RunoffPartitionCandidates) -> Decision:
    """Constructive run-off partition for the triangular-voter-count rule.

    If the voter count is not of the form 1 + n(n-1)/2 nobody ever wins;
    otherwise the single partition ({c}, C - {c}) succeeds iff any does.
    """
    if instance.type_code != "CCRPC" or instance.system.tag != "e1_tri":
        raise WrongSystem("expects constructive run-off partition on e1_tri")
    if not _triangular_roots(len(instance.ballots)):
        return Decision(False, None)
    c = instance.distinguished
    action = CandidatePartition(frozenset({c}), instance.candidates - {c})
    if goal_met(instance, action):
        return Decision(True, action)
    return Decision(False, None)


def e1_tri_even_ccpc_poly(instance: PartitionCandidates) -> Decision:
    """Constructive partition for the even-n triangular-voter-count rule.

    Tries (C - {c}, {c}) first; failing that, only partitions fitting the
    structural cases a winner requires -- c on side 1 with ||side1|| in
    {1, n/2 + 2}, or c on side 2 with ||side2|| in {1, n/2 + 1, n/2 + 2} --
    can possibly elect c, so only those are enumerated.
    """
    if instance.type_code != "CCPC" or instance.system.tag != "e1_tri_even":
        raise WrongSystem("expects constructive partition on e1_tri_even")
    roots = [n for n in _triangular_roots(len(instance.ballots)) if n % 2 == 0]
    if not roots:
        return Decision(False, None)
    c = instance.distinguished
    cands = instance.candidates
    first = CandidatePartition(cands - {c}, frozenset({c}))
    if goal_met(instance, first):
        return Decision(True, first)

    others = sorted(cands - {c})
    seen = {first}
    for n in roots:
        half = n // 2
        cases = [
            (True, (1, half + 2)),          # c in side 1
            (False, (1, half + 2, half + 1)),  # c in side 2
        ]
        for c_in_side1, sizes in cases:
            for size in sizes:
                fixed_size = size - 1 if c_in_side1 else size
                if not 0 <= fixed_size <= len(others):
                    continue
                for combo in combinations(others, fixed_size):
                    chosen = frozenset(combo)
                    side_with_c = chosen | {c}
                    if c_in_side1:
                        action = CandidatePartition(side_with_c, cands - side_with_c)
                    else:
                        action = CandidatePartition(cands - side_with_c, side_with_c)
                    if action in seen:
                        continue
                    seen.add(action)
                    if goal_met(instance, action):
                        return Decision(True, action)
    return Decision(False, None)


def destructive_poly(instance: ControlInstance) -> Decision:
    """Destructive DC/PC/RPC deciders for the two first-ballot-driven rules."""
    tag = instance.system.tag
    if (tag not in ("e0_dfirst", "e1_second")
            or instance.type_code not in ("DCDC", "DCPC", "DCRPC")):
        raise WrongSystem("expects destructive DC, PC or RPC on e0_dfirst or e1_second")
    c = instance.distinguished
    ballots = instance.ballots
    cands = instance.candidates
    deleting = instance.type_code == "DCDC"

    if tag == "e0_dfirst":
        loses_now = not ballots or ballots[0][0] != c
        if deleting:
            if loses_now:
                return Decision(True, DeleteSet(frozenset()))
            # one voter who ranks c first: c only loses once it is the sole
            # candidate, which costs ||C|| - 1 deletions
            if len(ballots) == 1 and instance.limit >= len(cands) - 1:
                return Decision(True, DeleteSet(cands - {c}))
            return Decision(False, None)
        if loses_now:
            return Decision(True, CandidatePartition(frozenset(), cands))
        if len(ballots) == 1:
            return Decision(True, CandidatePartition(frozenset({c}), cands - {c}))
        return Decision(False, None)

    # e1_second
    if deleting:
        if not ballots or len(ballots[0]) < 2 or ballots[0][1] != c:
            return Decision(True, DeleteSet(frozenset()))
        if (len(ballots) == 4 * len(cands) ** 2
                and all(c in b[:2] for b in ballots)):
            return Decision(True, DeleteSet(frozenset()))
        if instance.limit > 0:
            # deleting the first voter's favourite moves c up to first place
            return Decision(True, DeleteSet(frozenset({ballots[0][0]})))
        return Decision(False, None)
    # alone on a side, c is not ranked second by anyone and is eliminated
    return Decision(True, CandidatePartition(frozenset({c}), cands - {c}))


# The polynomial deciders, keyed by (shape code, goal, system tag).  Voter
# partition on a hybrid has no entry: its final run-off is over the
# subelection survivors, which can route to another constituent.
POLY_DECIDERS: dict[tuple[str, str, str], Decider] = {
    **{(shape, goal, tag): decider
       for tag in ("hybrid", "hybrid_base")
       for goal in (CONSTRUCTIVE, DESTRUCTIVE)
       for shape, decider in (("AC", ccac_hybrid_poly), ("AV", route_and_solve_voters),
                              ("DV", route_and_solve_voters))},
    ("DC", CONSTRUCTIVE, "e1_prefix"): e1_prefix_ccdc_poly,
    ("RPC", CONSTRUCTIVE, "e1_tri"): e1_tri_ccrpc_poly,
    ("PC", CONSTRUCTIVE, "e1_tri_even"): e1_tri_even_ccpc_poly,
    **{(shape, DESTRUCTIVE, tag): destructive_poly
       for tag in ("e0_dfirst", "e1_second") for shape in ("DC", "PC", "RPC")},
}


def poly_decide(instance: ControlInstance) -> Decision:
    """Dispatch to the polynomial decider covering this instance, if any."""
    decider = POLY_DECIDERS.get(
        (shape_of(instance).code, instance.goal, instance.system.tag))
    if decider is None:
        raise WrongSystem("no polynomial decider covers this instance; use --solver brute")
    return decider(instance)
