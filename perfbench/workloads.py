"""The three workloads: their inputs, built from a seed, and their operations.

An operation is one control instance decided by ``votectrl`` and then
checked.  ``Op.run`` is the timed part and returns the program's output;
``Op.check`` runs afterwards, outside the timed region, and returns why the
output is wrong, or None.  Every call into ``votectrl`` inside ``run`` goes
through a module attribute (``solvers.brute_force_decide``, not a name
imported here), so that the traced run sees it.

Each workload's input sequence has a fixed make-up: the same sizes,
targets and planted or YES/NO shares whatever the seed; only the contents
vary.  A run makes whole passes over it, so its mix of work is the same
from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from votectrl import cli, control, harness, reductions, solvers
from votectrl.control import (
    AddCandidates, AddVoters, DeleteCandidates, DeleteVoters,
    PartitionCandidates, RunoffPartitionCandidates,
    CONSTRUCTIVE, DESTRUCTIVE, TE, TP,
)
from votectrl.reductions import GraphInstance, X3CInstance
from votectrl.systems import ATOMIC_TAGS, atomic, hybrid

import oracles


# --- x3c-voter ----------------------------------------------------------------

# (base size, family size, planted) per family of one block; each family is
# reduced to DCDV, DCAV and DCPV.  Every other block adds one family of
# twelve sets over a base of twelve, planted in every other such family, so
# two blocks hold 3 * 33 = 99 operations.
X3C_BLOCK = (
    [(6, 5, j % 2 == 0) for j in range(8)]
    + [(6, 7, True), (6, 7, False), (9, 7, True), (9, 7, False),
       (9, 9, True), (9, 9, False), (12, 9, True), (12, 9, False)]
)
X3C_BLOCKS = 22


def _x3c_family(rng: random.Random, base_size: int, count: int,
                planted: bool) -> X3CInstance:
    base = list(range(1, base_size + 1))
    sets = []
    if planted:
        rng.shuffle(base)
        sets = [base[i:i + 3] for i in range(0, base_size, 3)]
    while len(sets) < count:
        sets.append(rng.sample(base, 3))
    rng.shuffle(sets)
    return X3CInstance(base, sets)


class X3COp:
    """Reduce an exact-cover family to one destructive voter-control target
    on not_all_one, and decide it by brute force."""

    def __init__(self, family: X3CInstance, target: str, expected: dict):
        self.family, self.target = family, target
        self._expected = expected   # shared by the family's three targets

    def run(self):
        inst = reductions.reduce_x3c(self.family, self.target)
        return inst, solvers.brute_force_decide(inst)

    def check(self, out) -> str | None:
        inst, decision = out
        if "answer" not in self._expected:
            self._expected["answer"] = oracles.exact_cover_exists(
                self.family.base, self.family.family)
        if decision.answer != self._expected["answer"]:
            return f"answer {decision.answer}, exact cover says {not decision.answer}"
        problem = oracles.witness_problem(inst, decision)
        if problem or not decision.answer or self.target == "DCPV":
            return problem
        # the set ballots kept (DCDV) or added (DCAV) must be an exact cover;
        # a set ballot ranks d first and then its three base elements
        if self.target == "DCDV":
            chosen = [b for i, b in enumerate(inst.ballots)
                      if i not in decision.witness.deleted]
        else:
            chosen = [inst.unregistered[i] for i in decision.witness.added]
        if not oracles.is_exact_cover(self.family.base, [b[1:4] for b in chosen]):
            return "the witness's set ballots are not an exact cover"
        return None


def build_x3c(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for block in range(X3C_BLOCKS):
        specs = X3C_BLOCK + ([(12, 12, block % 4 == 0)] if block % 2 == 0 else [])
        for base_size, count, planted in specs:
            family = _x3c_family(rng, base_size, count, planted)
            expected: dict = {}
            ops.extend(X3COp(family, t, expected) for t in reductions.X3C_TARGETS)
    return ops


# --- vc-candidate -------------------------------------------------------------

HALF_TARGETS = ("CCPC", "DCDC", "DCPC", "DCRPC")
CCRPC5_GRAPHS = 128   # 5-vertex graphs sampled per seed for odd-half CCRPC
# 6-vertex graphs sampled per seed: this many with an exact 3-cover (YES for
# every half-cover target) and this many without.  The NO instances of DCPC
# and DCRPC are the slowest decisions; 2 * 12 of them make 1.6% of a pass, so
# the 99th percentile falls among them rather than at their edge.
VC6_YES, VC6_NO = 6, 12


def _all_graphs(n: int) -> list:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [GraphInstance(range(1, n + 1),
                          [p for i, p in enumerate(pairs) if mask >> i & 1])
            for mask in range(1 << len(pairs))]


def _spread(many: list, few: list) -> list:
    """Both lists merged, with ``few`` spaced evenly among ``many``."""
    total = len(many) + len(few)
    out, m, f = [], iter(many), iter(few)
    for j in range(total):
        pick_few = (j + 1) * len(few) // total > j * len(few) // total
        out.append(next(f) if pick_few else next(m))
    return out


def _sample_graphs(rng: random.Random, n: int, yes: int, no: int) -> list:
    """Random n-vertex graphs, ``yes`` with an exact n/2-cover and ``no``
    without, interleaved; edge density varies so both kinds come up."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    want = {True: yes, False: no}
    got = {True: [], False: []}
    while any(len(got[a]) < want[a] for a in want):
        p = rng.choice((0.3, 0.5, 0.7, 0.85))
        g = GraphInstance(range(1, n + 1), [e for e in pairs if rng.random() < p])
        answer = oracles.has_cover_of_size(g.vertices, g.edges, n // 2)
        if len(got[answer]) < want[answer]:
            got[answer].append(g)
    return _spread(got[True], got[False])


class VCOp:
    """Reduce a graph to a candidate-control target on a hybrid, and decide it
    by brute force."""

    def __init__(self, graph: GraphInstance, target: str, k: int | None = None):
        self.graph, self.target, self.k = graph, target, k

    def run(self):
        if self.target == "CCDC":
            inst = reductions.reduce_vc_to_ccdc(self.graph, self.k)
        else:
            inst = reductions.reduce_half_vc(self.graph, self.target)
        return inst, solvers.brute_force_decide(inst)

    def expected(self) -> bool:
        g = self.graph
        if self.target == "CCDC":
            return oracles.has_cover_at_most(g.edges, self.k)
        n = len(g.vertices)
        return oracles.has_cover_of_size(g.vertices, g.edges, (n + 1) // 2)

    def check(self, out) -> str | None:
        inst, decision = out
        if decision.answer != self.expected():
            return f"answer {decision.answer}, vertex cover says {not decision.answer}"
        return oracles.witness_problem(inst, decision)


def build_vc(seed: int) -> list:
    """CCDC on every 5-vertex graph, each at one k, every k on a sixth of
    them; odd-half CCRPC on a seeded sample of 5-vertex graphs; the four
    half-cover targets on every 4-vertex graph and on a seeded sample of
    6-vertex graphs, which are spread evenly through the rest."""
    rng = random.Random(seed)
    five = _all_graphs(5)
    ks = [j % 6 for j in range(len(five))]
    rng.shuffle(ks)
    small = [VCOp(g, "CCDC", k) for g, k in zip(five, ks)]
    small += [VCOp(g, "CCRPC") for g in rng.sample(five, CCRPC5_GRAPHS)]
    small += [VCOp(g, t) for g in _all_graphs(4) for t in HALF_TARGETS]
    rng.shuffle(small)
    large = [VCOp(g, t) for g in _sample_graphs(rng, 6, VC6_YES, VC6_NO)
             for t in HALF_TARGETS]
    return _spread(small, large)


# --- random-mix ---------------------------------------------------------------

EMBED_INTO = tuple(atomic(t) for t in ("plurality", "condorcet", "not_all_one"))
EMBED_HYBRID = hybrid(*EMBED_INTO)
SYSTEMS = tuple(atomic(t) for t in ATOMIC_TAGS) + (
    EMBED_HYBRID, hybrid("e_first", "e_last"), hybrid("e0_solo", "e1_prefix"))
# the 20 control types: 7 shapes x 2 goals, the 3 partition shapes again
# with the TP tie model
TYPES = tuple((shape, goal, tie) for goal in (CONSTRUCTIVE, DESTRUCTIVE)
              for shape in ("AC", "DC", "PC", "RPC", "AV", "DV", "PV")
              for tie in ((TE, TP) if shape in ("PC", "RPC", "PV") else (TE,)))
MIX_ROUNDS = 48
MAX_CANDIDATES, MAX_VOTERS = 5, 6


def poly_covers(inst) -> bool:
    """Is there a polynomial decider in ``cli.poly_decide`` for ``inst``?

    The benchmark keeps its own copy of the dispatch table, so the workload
    stays the same when the program gains deciders.  Voter partition on a
    hybrid is left out: ``route_and_solve_voters`` routes on the full
    candidate set, but the run-off after a voter partition is over the
    survivors, which can route elsewhere.
    """
    sid, constructive = inst.system, inst.goal == CONSTRUCTIVE
    if sid.is_hybrid:
        return isinstance(inst, (AddCandidates, AddVoters, DeleteVoters))
    kind = type(inst)
    return ((sid.tag == "e1_prefix" and constructive and kind is DeleteCandidates)
            or (sid.tag == "e1_tri" and constructive and kind is RunoffPartitionCandidates)
            or (sid.tag == "e1_tri_even" and constructive and kind is PartitionCandidates)
            or (sid.tag in ("e0_dfirst", "e1_second") and not constructive
                and kind in (DeleteCandidates, PartitionCandidates,
                             RunoffPartitionCandidates)))


class MixOp:
    """Text round trip, brute force, the polynomial decider where one
    covers the instance, and the decision of its embedding into the hybrid
    of plurality, condorcet and not_all_one."""

    def __init__(self, inst):
        self.inst = inst
        self.poly = poly_covers(inst)
        self.embed = EMBED_INTO.index(inst.system) if inst.system in EMBED_INTO else None

    def run(self):
        parsed = control.parse_instance(control.format_instance(self.inst))
        decision = solvers.brute_force_decide(parsed)
        poly = cli.poly_decide(parsed) if self.poly else None
        embedded = None
        if self.embed is not None:
            renamed = harness.embed_rename(
                parsed, harness.RenamingMap.affine(len(EMBED_INTO), self.embed))
            embedded = solvers.brute_force_decide(replace(renamed, system=EMBED_HYBRID))
        return parsed, decision, poly, embedded

    def check(self, out) -> str | None:
        parsed, decision, poly, embedded = out
        if parsed != self.inst:
            return "the text round trip changed the instance"
        answer, witness = oracles.reference_decide(parsed)
        if (decision.answer, decision.witness) != (answer, witness):
            return (f"brute force gave {decision}, the reference enumeration"
                    f" ({answer}, {witness})")
        if poly is not None:
            if poly.answer != answer:
                return f"polynomial decider answered {poly.answer}, brute force {answer}"
            problem = oracles.witness_problem(parsed, poly)
            if problem:
                return "polynomial decider: " + problem
        if embedded is not None:
            renamed = oracles.rename_action(witness, len(EMBED_INTO), self.embed)
            if (embedded.answer, embedded.witness) != (answer, renamed):
                return (f"embedding decided {embedded}, the constituent"
                        f" ({answer}, {renamed})")
        return None


def build_mix(seed: int) -> list:
    """MIX_ROUNDS rounds, each one draw of every (control type, system) pair."""
    rng = random.Random(seed)
    return [MixOp(harness.random_instance(rng, shape, goal, sid, tie,
                                          max_candidates=MAX_CANDIDATES,
                                          max_voters=MAX_VOTERS))
            for _ in range(MIX_ROUNDS)
            for shape, goal, tie in TYPES
            for sid in SYSTEMS]


WORKLOADS = {
    "x3c-voter": build_x3c,
    "vc-candidate": build_vc,
    "random-mix": build_mix,
}
