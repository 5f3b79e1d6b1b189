"""End-to-end acceptance checks.

Each test covers one headline guarantee, prints a single PASS line with its
measurements, and enforces the wall-clock budget it must meet on one core.
The final test aggregates the witness-soundness and limit-monotonicity
counters that the earlier grids record as they run, so it must execute after
them (pytest's default file order does this).
"""

import itertools
import random
import time

from votectrl.control import (
    AddCandidates, AddVoters, DeleteCandidates, DeleteVoters,
    PartitionCandidates, PartitionVoters, RunoffPartitionCandidates,
    CONSTRUCTIVE, DESTRUCTIVE, TE, TP, goal_met, with_goal,
)
from votectrl.core import Election
from votectrl.harness import (
    anonymity_falsify, inheritance_check, random_instance,
    replay_recorded_scenarios, special_construction,
)
from votectrl.control import SHAPES as _SHAPES
from votectrl.reductions import (
    GraphInstance, X3CInstance, reduce_half_vc, reduce_vc_to_ccdc, reduce_x3c,
    source_answer, X3C_TARGETS,
)
from votectrl.solvers import (
    brute_force_decide, ccac_hybrid_poly, destructive_poly,
    e1_prefix_ccdc_poly, e1_tri_ccrpc_poly, e1_tri_even_ccpc_poly,
)
from votectrl.systems import ATOMIC_TAGS, atomic, hybrid, winners

# inline-invariant counters, aggregated by the final test
STATS = {"sound": 0, "monotone": 0}


def _decide_checked(instance, decision=None):
    """Brute-force decision plus the inline witness-soundness check."""
    if decision is None:
        decision = brute_force_decide(instance)
    if decision.answer:
        assert goal_met(instance, decision.witness), instance
        STATS["sound"] += 1
    return decision


def _check_limit_monotone(instance, answer, max_limit):
    """A true answer at limit k must stay true at k + 1."""
    if not answer or instance.limit + 1 > max_limit:
        return
    from dataclasses import replace
    bumped = replace(instance, limit=instance.limit + 1)
    assert brute_force_decide(bumped).answer, bumped
    STATS["monotone"] += 1


def test_criterion_1_replay_scenarios():
    t0 = time.perf_counter()
    results = replay_recorded_scenarios()
    dt = time.perf_counter() - t0
    assert all(r.ok for r in results) and len(results) == 4
    assert dt < 1.0, f"replay took {dt:.2f}s"
    print(f"\nPASS criterion 1: replay scenarios 4/4 in {dt:.2f}s")


def test_criterion_2_exact_cover_reductions_exhaustive():
    t0 = time.perf_counter()
    families = []
    for size in (3, 6):
        base = range(1, size + 1)
        triples = [frozenset(t) for t in itertools.combinations(base, 3)]
        for count in range(1, 6):
            for combo in itertools.combinations(triples, count):
                families.append(X3CInstance(base, combo))
    assert len(families) == 21700

    checked = 0
    for fam_index, x3c in enumerate(families):
        expected = None
        for target in X3C_TARGETS:
            inst = reduce_x3c(x3c, target)
            if expected is None:
                expected = source_answer(x3c, inst)
            decision = _decide_checked(inst)
            assert decision.answer == expected, (x3c, target)
            checked += 1
            if (isinstance(inst, (DeleteVoters, AddVoters))
                    and fam_index % 10 == 0):
                cap = (len(inst.ballots) if isinstance(inst, DeleteVoters)
                       else len(inst.unregistered))
                _check_limit_monotone(inst, decision.answer, cap)
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"exact-cover grid took {dt:.1f}s"
    print(f"PASS criterion 2: exact-cover reductions {checked}/{checked}"
          f" equivalent in {dt:.1f}s")


def _all_graphs(n):
    vertices = range(1, n + 1)
    pairs = list(itertools.combinations(vertices, 2))
    for mask in range(2 ** len(pairs)):
        yield GraphInstance(vertices,
                            [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_criterion_3_vertex_cover_reduction_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        for g in _all_graphs(n):
            seen_true = False
            for k in range(0, n + 1):
                inst = reduce_vc_to_ccdc(g, k)
                decision = _decide_checked(inst)
                assert decision.answer == source_answer(g, inst), (g, k)
                # growing k keeps a solvable instance solvable
                assert decision.answer or not seen_true, (g, k)
                if seen_true:
                    STATS["monotone"] += 1
                seen_true = seen_true or decision.answer
                checked += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"vertex-cover grid took {dt:.1f}s"
    print(f"PASS criterion 3: vertex-cover reduction {checked}/{checked}"
          f" equivalent in {dt:.1f}s")


def test_criterion_4_half_cover_reductions():
    t0 = time.perf_counter()
    checked = 0
    for g in _all_graphs(3):
        inst = reduce_half_vc(g, "CCRPC")
        assert _decide_checked(inst).answer == source_answer(g, inst), g
        checked += 1
    for n in (2, 4):
        for g in _all_graphs(n):
            for target in ("CCPC", "DCDC", "DCPC", "DCRPC"):
                inst = reduce_half_vc(g, target)
                decision = _decide_checked(inst)
                assert decision.answer == source_answer(g, inst), (g, target)
                checked += 1
    # the largest destructive instances pair 6 candidates with 64 ballots
    sample = reduce_half_vc(next(_all_graphs(4)), "DCDC")
    assert len(sample.ballots) == 64 and len(sample.candidates) == 6
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"half-cover grids took {dt:.1f}s"
    print(f"PASS criterion 4: half-cover reductions {checked}/{checked}"
          f" equivalent in {dt:.1f}s")


def test_criterion_5_embedding_invariance():
    t0 = time.perf_counter()
    constituents = tuple(atomic(t)
                         for t in ("plurality", "condorcet", "not_all_one"))
    problems = [(shape, goal, tie)
                for shape in _SHAPES
                for goal in (CONSTRUCTIVE, DESTRUCTIVE)
                for tie in ((TE, TP) if shape in ("PC", "RPC", "PV") else (TE,))]
    assert len(problems) == 20
    rng = random.Random(2024)
    checked = 0
    for shape, goal, tie in problems:
        for _ in range(500):
            index = rng.randrange(3)
            inst = random_instance(rng, shape, goal, constituents[index],
                                   tie=tie, max_candidates=4, max_voters=5)
            assert inheritance_check(constituents, index, inst).equal, inst
            checked += 1
    dt = time.perf_counter() - t0
    print(f"PASS criterion 5: embedding invariance {checked}/{checked}"
          f" across 20 control types in {dt:.1f}s")


_PROFILE_CAP = 700
_PROFILE_SAMPLE = 120


def _profiles(rng, order, voters):
    perms = list(itertools.permutations(order))
    if len(perms) ** voters <= _PROFILE_CAP:
        return list(itertools.product(perms, repeat=voters))
    return [tuple(rng.choice(perms) for _ in range(voters))
            for _ in range(_PROFILE_SAMPLE)]


def test_criterion_6_polynomial_deciders_agree_with_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    checked = 0

    def check(inst, poly_decision):
        nonlocal checked
        brute = _decide_checked(inst)
        assert poly_decision.answer == brute.answer, inst
        if poly_decision.answer:
            assert goal_met(inst, poly_decision.witness), inst
            STATS["sound"] += 1
        checked += 1
        return brute.answer

    # adding candidates on hybrid(e_first, e_last): every split of every
    # candidate set of size <= 4 drawn from each even/odd residue pattern
    sid = hybrid("e_first", "e_last")
    for m in range(1, 5):
        for evens in range(m + 1):
            ids = sorted([2 * i for i in range(evens)]
                         + [2 * i + 1 for i in range(m - evens)])
            for qmask in range(1, 2 ** m):
                qualified = frozenset(ids[i] for i in range(m) if qmask >> i & 1)
                spoilers = frozenset(ids) - qualified
                for voters in range(0, 4):
                    for profile in _profiles(rng, ids, voters):
                        for c in sorted(qualified):
                            for goal in (CONSTRUCTIVE, DESTRUCTIVE):
                                inst = AddCandidates(sid, qualified, spoilers,
                                                     c, profile, goal)
                                check(inst, ccac_hybrid_poly(inst))

    # deleting candidates on e1_prefix, all limits below the candidate count
    for m in range(1, 6):
        ids = list(range(m))
        cands = frozenset(ids)
        for voters in range(0, 5):
            for profile in _profiles(rng, ids, voters):
                for c in ids:
                    prev = False
                    for k in range(0, m):
                        inst = DeleteCandidates(atomic("e1_prefix"), cands, c,
                                                profile, k, CONSTRUCTIVE)
                        answer = check(inst, e1_prefix_ccdc_poly(inst))
                        assert answer or not prev, inst
                        if prev:
                            STATS["monotone"] += 1
                        prev = answer

    # run-off partition on e1_tri
    for m in range(1, 5):
        ids = list(range(m))
        cands = frozenset(ids)
        for voters in (1, 2, 4):
            for profile in _profiles(rng, ids, voters):
                for c in ids:
                    for tie in (TE, TP):
                        inst = RunoffPartitionCandidates(
                            atomic("e1_tri"), cands, c, profile, tie, CONSTRUCTIVE)
                        check(inst, e1_tri_ccrpc_poly(inst))

    # partition on e1_tri_even
    for m in range(1, 5):
        ids = list(range(m))
        cands = frozenset(ids)
        for voters in (1, 2):
            for profile in _profiles(rng, ids, voters):
                for c in ids:
                    for tie in (TE, TP):
                        inst = PartitionCandidates(
                            atomic("e1_tri_even"), cands, c, profile, tie,
                            CONSTRUCTIVE)
                        check(inst, e1_tri_even_ccpc_poly(inst))

    # destructive deleting/partition control on e0_dfirst and e1_second
    for tag in ("e0_dfirst", "e1_second"):
        sid = atomic(tag)
        for m in range(1, 5):
            ids = list(range(m))
            cands = frozenset(ids)
            for voters in range(0, 4):
                for profile in _profiles(rng, ids, voters):
                    for c in ids:
                        prev = False
                        for k in range(0, m):
                            inst = DeleteCandidates(sid, cands, c, profile, k,
                                                    DESTRUCTIVE)
                            answer = check(inst, destructive_poly(inst))
                            assert answer or not prev, inst
                            if prev:
                                STATS["monotone"] += 1
                            prev = answer
                        for tie in (TE, TP):
                            for cls in (PartitionCandidates,
                                        RunoffPartitionCandidates):
                                inst = cls(sid, cands, c, profile, tie,
                                           DESTRUCTIVE)
                                check(inst, destructive_poly(inst))

    dt = time.perf_counter() - t0
    assert dt < 120.0, f"polynomial-agreement grids took {dt:.1f}s"
    print(f"PASS criterion 6: polynomial deciders {checked}/{checked}"
          f" agreements in {dt:.1f}s")


def test_criterion_7_anonymity():
    t0 = time.perf_counter()
    for tag in ATOMIC_TAGS:
        witness = anonymity_falsify(atomic(tag), 10_000)
        assert witness is None, (tag, witness)
    witness = anonymity_falsify(hybrid("e_first", "e_last"), 10_000)
    assert witness is not None
    dt = time.perf_counter() - t0
    print(f"PASS criterion 7: anonymity clean for {len(ATOMIC_TAGS)} rules,"
          f" hybrid violation found, in {dt:.1f}s")


def test_criterion_8_clone_construction():
    t0 = time.perf_counter()
    checked = 0
    for tag in ("plurality", "condorcet"):
        sid = atomic(tag)
        rng = random.Random(2024)
        found = 0
        while found < 20:
            m = rng.randint(1, 4)
            order = rng.sample(range(9), m)
            ballots = []
            for _ in range(rng.randint(1, 5)):
                b = order[:]
                rng.shuffle(b)
                ballots.append(tuple(b))
            e = Election(order, ballots)
            ws = winners(sid, e)
            if len(ws) != 1:
                continue
            (c,) = ws
            report = special_construction(sid, e, c)
            assert report.winners_after_deleting_clones == {c}, (tag, e)
            assert report.winners_after_deleting_originals == {c + report.delta}
            found += 1
            checked += 1
    dt = time.perf_counter() - t0
    print(f"PASS criterion 8: clone construction {checked}/{checked}"
          f" restorations in {dt:.1f}s")


def test_criterion_9_inline_invariants_were_exercised():
    # criteria 2-6 assert witness soundness on every true decision and
    # limit-monotonicity wherever a grid walks ascending limits; this test
    # certifies those inline checks actually fired
    assert STATS["sound"] > 1_000, STATS
    assert STATS["monotone"] > 1_000, STATS
    print(f"PASS criterion 9: inline invariants"
          f" ({STATS['sound']} witness-soundness,"
          f" {STATS['monotone']} monotonicity checks)")
