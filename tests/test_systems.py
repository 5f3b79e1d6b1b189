import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from votectrl.core import Election
from votectrl.errors import ParseError, WrongSystem
from votectrl.systems import (
    ATOMIC_TAGS, RULES, SystemId, atomic, format_system, hybrid, hybrid_base, parse_system,
    raw_winners, route, winners,
)


ANONYMOUS_TAGS = tuple(t for t in ATOMIC_TAGS if RULES[t].voter_anonymous)


def run(tag, cands, ballots):
    return raw_winners(atomic(tag), frozenset(cands), tuple(map(tuple, ballots)))


# --- concrete rules ---------------------------------------------------------


def test_plurality_counts_top_choices():
    assert run("plurality", {0, 1, 2}, [(0, 1, 2), (0, 2, 1), (1, 0, 2)]) == {0}


def test_plurality_zero_ballots_everyone_ties_at_zero():
    assert run("plurality", {0, 1, 2}, []) == {0, 1, 2}


def test_plurality_tie():
    assert run("plurality", {0, 1}, [(0, 1), (1, 0)]) == {0, 1}


def test_condorcet_strict_majority_over_every_rival():
    assert run("condorcet", {0, 1, 2},
               [(1, 0, 2), (1, 2, 0), (0, 1, 2)]) == {1}


def test_condorcet_cycle_has_no_winner():
    assert run("condorcet", {0, 1, 2},
               [(0, 1, 2), (1, 2, 0), (2, 0, 1)]) == set()


def test_condorcet_single_candidate_wins_vacuously():
    assert run("condorcet", {5}, []) == {5}
    assert run("condorcet", {5}, [(5,)]) == {5}


def test_condorcet_exact_half_is_not_a_majority():
    assert run("condorcet", {0, 1}, [(0, 1), (1, 0)]) == set()


class TestNotAllOne:
    def test_majority_candidate_wins(self):
        assert run("not_all_one", {0, 1, 2},
                   [(0, 1, 2), (0, 2, 1), (1, 2, 0)]) == {0}

    def test_no_majority_no_winner(self):
        assert run("not_all_one", {0, 1}, [(0, 1), (1, 0)]) == set()

    def test_all_others_scoring_exactly_one_blocks(self):
        # sole ballot: 0 has the majority, 1 and 2 each score 1 in the top four
        assert run("not_all_one", {0, 1, 2}, [(0, 1, 2)]) == set()

    def test_a_zero_scorer_unblocks(self):
        # candidate 4 sits outside every top four, scoring 0 (not 1)
        assert run("not_all_one", {0, 1, 2, 3, 4},
                   [(0, 1, 2, 3, 4)]) == {0}

    def test_lone_candidate_wins(self):
        # the blocking clause ranges over *other* candidates; alone, c wins
        assert run("not_all_one", {7}, [(7,)]) == {7}

    def test_zero_ballots_no_winner(self):
        assert run("not_all_one", {0, 1}, []) == set()

    @settings(max_examples=300)
    @given(st.data())
    def test_counted_form_agrees_with_plain(self, data):
        # every voter-anonymous rule's form: the not_all_one kernel, and the
        # expanded form of the rules without a kernel
        tag = data.draw(st.sampled_from(ANONYMOUS_TAGS))
        m = data.draw(st.integers(1, 4))
        cands = frozenset(range(m))
        order = sorted(cands)
        groups = data.draw(st.lists(
            st.permutations(order).map(tuple), min_size=1, max_size=4,
            unique=True))
        totals = [data.draw(st.integers(0, 5)) for _ in groups]
        counts = [data.draw(st.integers(0, t)) for t in totals]
        form = RULES[tag].form(cands, tuple(groups), sum(totals))
        full = sum(u * t for u, t in zip(form.units, totals))
        v = sum(u * k for u, k in zip(form.units, counts))
        # a multiset and its complement within all the ballots, as voter
        # partition packs them: v and full - v
        codes, decode = form.codes([v, full - v])
        for code, kept in zip(codes, (counts, [t - k for t, k in zip(totals, counts)])):
            flat = tuple(b for b, k in zip(groups, kept) for _ in range(k))
            assert decode(code) == run(tag, cands, flat)


@pytest.mark.parametrize("tag", [t for t in ATOMIC_TAGS if t not in ANONYMOUS_TAGS])
def test_a_rule_that_reads_ballot_order_has_no_counted_form(tag):
    with pytest.raises(WrongSystem, match=f"{tag} is not voter-anonymous"):
        RULES[tag].form(frozenset({0, 1}), ((0, 1), (1, 0)), 2)


def test_e_first_and_e_last_need_exactly_one_ballot():
    assert run("e_first", {0, 1}, [(1, 0)]) == {1}
    assert run("e_last", {0, 1}, [(1, 0)]) == {0}
    for tag in ("e_first", "e_last"):
        assert run(tag, {0, 1}, []) == set()
        assert run(tag, {0, 1}, [(1, 0), (0, 1)]) == set()


def test_e_null_never_elects():
    assert run("e_null", {0, 1}, [(0, 1)]) == set()


def test_e0_solo_only_cares_about_candidate_count():
    assert run("e0_solo", {4}, []) == {4}
    assert run("e0_solo", {4}, [(4,), (4,)]) == {4}
    assert run("e0_solo", {4, 6}, [(4, 6)]) == set()


class TestE1Prefix:
    def test_needs_two_voters(self):
        assert run("e1_prefix", {0, 1}, [(0, 1)]) == set()

    def test_first_on_both_leading_ballots(self):
        assert run("e1_prefix", {0, 1, 2},
                   [(0, 1, 2), (0, 2, 1), (2, 1, 0)]) == {0}

    def test_top_two_everywhere_fallback(self):
        assert run("e1_prefix", {0, 1, 2},
                   [(0, 1, 2), (1, 0, 2), (2, 0, 1)]) == {0}

    def test_neither_clause(self):
        assert run("e1_prefix", {0, 1, 2},
                   [(0, 1, 2), (1, 2, 0), (2, 1, 0)]) == set()


def test_e0_single():
    assert run("e0_single", {3}, [(3,)]) == {3}
    assert run("e0_single", {3}, []) == set()
    assert run("e0_single", {3}, [(3,), (3,)]) == set()
    assert run("e0_single", {3, 4}, [(3, 4)]) == set()


class TestE1Tri:
    # winning needs ||V|| = 1 + n(n-1)/2 with 2||C|| <= n + 3, plus the
    # first voter's favourite ranked top-two by everyone

    def test_one_voter(self):
        assert run("e1_tri", {0, 1}, [(0, 1)]) == {0}  # n = 1 gives m <= 2

    def test_voter_count_not_triangular(self):
        assert run("e1_tri", {0, 1}, [(0, 1), (0, 1), (0, 1)]) == set()  # 3 voters

    def test_candidate_bound(self):
        ballots = [(0, 1, 2), (0, 1, 2)]  # 2 voters -> n = 2, need 2m <= 5
        assert run("e1_tri", {0, 1, 2}, ballots) == set()
        assert run("e1_tri", {0, 1}, [(0, 1), (0, 1)]) == {0}

    def test_top_two_required_everywhere(self):
        assert run("e1_tri", {0, 1}, [(0, 1), (1, 0)]) == {0}
        ballots4 = [(0, 1, 2), (1, 2, 0), (0, 1, 2), (0, 2, 1)]
        assert run("e1_tri", {0, 1, 2}, ballots4) == set()


class TestE1TriEven:
    def test_even_root_required(self):
        # 2 voters -> n = 2 (even), ||C|| must be 1 or n/2 + 2 = 3
        assert run("e1_tri_even", {0, 1, 2}, [(0, 1, 2), (0, 2, 1)]) == {0}
        assert run("e1_tri_even", {0, 1}, [(0, 1), (0, 1)]) == set()

    def test_one_voter_uses_root_zero(self):
        # 1 voter -> n in {0, 1}; only n = 0 is even, allowing ||C|| in {1, 2}
        assert run("e1_tri_even", {0, 1}, [(0, 1)]) == {0}
        assert run("e1_tri_even", {0, 1, 2}, [(0, 1, 2)]) == set()


def test_e0_dfirst():
    assert run("e0_dfirst", {0, 1}, [(1, 0)]) == {1}
    assert run("e0_dfirst", {0}, [(0,)]) == set()  # one voter, one candidate
    assert run("e0_dfirst", {0}, [(0,), (0,)]) == {0}
    assert run("e0_dfirst", {0, 1}, []) == set()


class TestE1Second:
    def test_second_of_first_ballot_wins(self):
        assert run("e1_second", {0, 1, 2}, [(1, 0, 2)]) == {0}

    def test_single_candidate_never_wins(self):
        assert run("e1_second", {0}, [(0,)]) == set()

    def test_blocking_voter_count(self):
        # ||V|| = 4 * ||C||^2 = 16 and c top-two everywhere blocks the win
        assert run("e1_second", {0, 1}, [(1, 0)] * 16) == set()
        assert run("e1_second", {0, 1}, [(1, 0)] * 15) == {0}

    def test_escape_via_a_bad_ballot(self):
        ballots = [(1, 0, 2)] * 3 + [(1, 2, 0)] * 33  # 36 = 4 * 3^2 voters
        assert run("e1_second", {0, 1, 2}, ballots) == {0}


# --- routing and the combinator ---------------------------------------------


def test_route_uniform_residue_picks_that_constituent():
    sid = hybrid("e_first", "e_last")
    assert route(sid, frozenset({0, 2, 4})).tag == "e_first"
    assert route(sid, frozenset({1, 3})).tag == "e_last"


def test_route_mixed_or_empty_uses_default():
    sid = hybrid("e_first", "e_last")
    assert route(sid, frozenset({0, 1})).tag == "e_last"
    assert route(sid, frozenset()).tag == "e_last"
    based = hybrid_base(["e_first", "e_last"], "e_null")
    assert route(based, frozenset({0, 1})).tag == "e_null"
    assert route(based, frozenset({2})).tag == "e_first"


def test_empty_candidate_set_has_no_winners():
    for tag in ATOMIC_TAGS:
        assert run(tag, set(), []) == set()
    assert raw_winners(hybrid("e_first", "e_last"), frozenset(), ()) == frozenset()


def test_winners_on_election_object():
    e = Election({0, 2}, [(2, 0)])
    assert winners(hybrid("e_first", "e_last"), e) == {2}


def test_atomic_rejects_constituents():
    with pytest.raises(ValueError):
        SystemId("plurality", (atomic("condorcet"),))
    with pytest.raises(ValueError):
        SystemId("nonsense")


def test_hybrid_constituents_must_be_atomic():
    with pytest.raises(ValueError):
        hybrid(hybrid("e_first", "e_last"), "e_null")


def test_hybrid_base_needs_default():
    with pytest.raises(ValueError):
        SystemId("hybrid_base", (atomic("e_first"),))


# --- grammar ----------------------------------------------------------------


def test_parse_format_roundtrip_atomic_and_hybrid():
    for text in ("plurality",
                 "hybrid:e_first,e_last",
                 "hybrid_base:plurality,condorcet;default=e_null"):
        sid = parse_system(text)
        assert format_system(sid) == text
        assert parse_system(format_system(sid)) == sid


def test_parse_rejects_garbage():
    for text in ("hybrid:", "borda", "hybrid_base:plurality"):
        with pytest.raises(ParseError):
            parse_system(text)


# --- cross-cutting properties -----------------------------------------------


ALL_SYSTEMS = ([atomic(t) for t in ATOMIC_TAGS]
               + [hybrid("e_first", "e_last"),
                  hybrid("plurality", "condorcet", "not_all_one")])


@settings(max_examples=60)
@given(st.data())
def test_winners_are_candidates(data):
    sid = data.draw(st.sampled_from(ALL_SYSTEMS))
    cands = data.draw(st.sets(st.integers(0, 8), min_size=1, max_size=4))
    order = sorted(cands)
    ballots = data.draw(st.lists(st.permutations(order).map(tuple), max_size=5))
    assert raw_winners(sid, frozenset(cands), tuple(ballots)) <= cands


@settings(max_examples=60)
@given(st.data())
def test_tie_free_tags_return_at_most_one_winner(data):
    tag = data.draw(st.sampled_from(sorted(t for t, r in RULES.items() if r.tie_free)))
    cands = data.draw(st.sets(st.integers(0, 8), min_size=1, max_size=4))
    ballots = data.draw(st.lists(
        st.permutations(sorted(cands)).map(tuple), max_size=5))
    assert len(run(tag, cands, ballots)) <= 1


def test_condorcet_is_tie_free():
    # a Condorcet winner beats every rival by a strict majority, so no
    # profile has two; checked on every profile of up to four ballots
    assert RULES["condorcet"].tie_free
    cands = (0, 1, 2)
    orders = list(permutations(cands))
    for size in range(5):
        for ballots in product(orders, repeat=size):
            assert len(run("condorcet", cands, ballots)) <= 1


@settings(max_examples=60)
@given(st.data())
def test_voter_anonymous_tags_ignore_ballot_order(data):
    tag = data.draw(st.sampled_from(
        sorted(t for t, r in RULES.items() if r.voter_anonymous)))
    cands = data.draw(st.sets(st.integers(0, 8), min_size=1, max_size=4))
    ballots = data.draw(st.lists(
        st.permutations(sorted(cands)).map(tuple), max_size=5))
    shuffled = list(ballots)
    random.Random(0).shuffle(shuffled)
    assert run(tag, cands, ballots) == run(tag, cands, shuffled)
