"""Election systems: the concrete rules and the hybrid combinator.

Every system is a pure function from (candidate set, ballot list) to a
winner set.  ``winners`` is the public entry point; the per-tag functions
take the raw ``(candidates, ballots)`` pair so solvers can call them in
tight loops without building Election objects.

Several rules are deliberately artificial: they exist to exhibit specific
control behaviour (e.g. sensitivity to the first ballot, or to exact voter
counts), not to be sensible voting rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterable

from .core import Ballot, Election
from .errors import ParseError, WrongSystem


@dataclass(frozen=True)
class SystemId:
    """A system name: an atomic tag, or hybrid/hybrid_base over atomic ones."""

    tag: str
    constituents: tuple["SystemId", ...] = ()
    default: "SystemId | None" = None

    def __post_init__(self):
        if self.tag in RULES:
            if self.constituents or self.default is not None:
                raise ValueError(f"{self.tag} takes no constituents")
        elif self.tag in ("hybrid", "hybrid_base"):
            if not self.constituents:
                raise ValueError("hybrid needs at least one constituent")
            for c in self.constituents:
                if c.is_hybrid:
                    raise ValueError("hybrid constituents must not be hybrids")
            if self.tag == "hybrid_base":
                if self.default is None or self.default.is_hybrid:
                    raise ValueError("hybrid_base needs a non-hybrid default")
            elif self.default is not None:
                raise ValueError("hybrid's default is implicit (last constituent)")
        else:
            raise ValueError(f"unknown system tag {self.tag!r}")

    @property
    def is_hybrid(self) -> bool:
        return self.tag in ("hybrid", "hybrid_base")

    @property
    def default_constituent(self) -> "SystemId":
        if self.tag == "hybrid":
            return self.constituents[-1]
        if self.tag == "hybrid_base":
            assert self.default is not None
            return self.default
        raise ValueError(f"{self.tag} has no default constituent")

    def __str__(self) -> str:
        return format_system(self)


def atomic(tag: str) -> SystemId:
    return SystemId(tag)


def hybrid(*tags_or_ids: "str | SystemId") -> SystemId:
    parts = tuple(atomic(t) if isinstance(t, str) else t for t in tags_or_ids)
    return SystemId("hybrid", parts)


def hybrid_base(constituents: Iterable["str | SystemId"],
                default: "str | SystemId") -> SystemId:
    parts = tuple(atomic(t) if isinstance(t, str) else t for t in constituents)
    dflt = atomic(default) if isinstance(default, str) else default
    return SystemId("hybrid_base", parts, dflt)


def parse_system(text: str) -> SystemId:
    """Parse the SystemId grammar, e.g. ``hybrid:e_first,e_last``."""
    text = text.strip()
    try:
        if text.startswith("hybrid_base:"):
            body = text[len("hybrid_base:"):]
            if ";default=" not in body:
                raise ValueError("hybrid_base needs ';default=<system>'")
            csv, dflt = body.split(";default=", 1)
            return hybrid_base([t.strip() for t in csv.split(",")], dflt.strip())
        if text.startswith("hybrid:"):
            csv = text[len("hybrid:"):]
            return hybrid(*[t.strip() for t in csv.split(",")])
        return atomic(text)
    except ValueError as exc:
        raise ParseError(f"bad system id {text!r}: {exc}") from exc


def format_system(sid: SystemId) -> str:
    if sid.tag == "hybrid":
        return "hybrid:" + ",".join(c.tag for c in sid.constituents)
    if sid.tag == "hybrid_base":
        csv = ",".join(c.tag for c in sid.constituents)
        return f"hybrid_base:{csv};default={sid.default_constituent.tag}"
    return sid.tag


# ---------------------------------------------------------------------------
# winner rules


def plurality_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    if not cands:
        return frozenset()
    counts = dict.fromkeys(cands, 0)
    for b in ballots:
        counts[b[0]] += 1
    best = max(counts.values())
    return frozenset(c for c, n in counts.items() if n == best)


def condorcet_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    half = len(ballots) / 2
    for c in cands:
        # c must beat every other candidate with a strict majority head-to-head
        if all(sum(b.index(c) < b.index(d) for b in ballots) > half
               for d in cands if d != c):
            return frozenset({c})
    return frozenset()


def not_all_one_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    n = len(ballots)
    if n == 0:
        return frozenset()
    top = dict.fromkeys(cands, 0)
    for b in ballots:
        top[b[0]] += 1
    c = next((x for x, k in top.items() if 2 * k > n), None)
    if c is None:
        return frozenset()
    others = [d for d in cands if d != c]
    if others:
        score = dict.fromkeys(others, 0)
        for b in ballots:
            for d in b[:4]:
                if d != c:
                    score[d] += 1
        # the blocking clause quantifies over the *other* candidates; with
        # none present it cannot trigger, so a lone majority candidate wins
        if all(v == 1 for v in score.values()):
            return frozenset()
    return frozenset({c})


def e_first_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    if len(ballots) == 1 and ballots[0]:
        return frozenset({ballots[0][0]})
    return frozenset()


def e_last_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    if len(ballots) == 1 and ballots[0]:
        return frozenset({ballots[0][-1]})
    return frozenset()


def e_null_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    return frozenset()


def e0_solo_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    # the only candidate wins, regardless of the voters
    return frozenset(cands) if len(cands) == 1 else frozenset()


def e1_prefix_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    if len(ballots) < 2 or not ballots[0]:
        return frozenset()
    c = ballots[0][0]
    if ballots[1][0] == c or all(c in b[:2] for b in ballots):
        return frozenset({c})
    return frozenset()


def e0_single_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    if len(cands) == 1 and len(ballots) == 1:
        return frozenset(cands)
    return frozenset()


def _triangular_roots(v: int) -> tuple[int, ...]:
    """All integers n >= 0 with 1 + n(n-1)/2 = v (zero, one, or two of them)."""
    if v < 1:
        return ()
    disc = 8 * (v - 1) + 1
    s = isqrt(disc)
    if s * s != disc:
        return ()
    roots = []
    for num in (1 - s, 1 + s):
        if num >= 0 and num % 2 == 0:
            roots.append(num // 2)
    return tuple(dict.fromkeys(roots))


def e1_tri_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    m = len(cands)
    # ||C|| <= (n+3)/2 over the rationals, i.e. 2||C|| <= n+3
    if not any(2 * m <= n + 3 for n in _triangular_roots(len(ballots))):
        return frozenset()
    if not ballots or not ballots[0]:
        return frozenset()
    c = ballots[0][0]
    if all(c in b[:2] for b in ballots):
        return frozenset({c})
    return frozenset()


def e1_tri_even_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    m = len(cands)
    if not any(n % 2 == 0 and m in (1, n // 2 + 2)
               for n in _triangular_roots(len(ballots))):
        return frozenset()
    if not ballots or not ballots[0]:
        return frozenset()
    c = ballots[0][0]
    if all(c in b[:2] for b in ballots):
        return frozenset({c})
    return frozenset()


def e0_dfirst_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    if not ballots or not ballots[0]:
        return frozenset()
    c = ballots[0][0]
    if len(ballots) >= 2 or len(cands) >= 2:
        return frozenset({c})
    return frozenset()


def e1_second_winners(cands: frozenset[int], ballots: tuple[Ballot, ...]) -> frozenset[int]:
    if not ballots or len(ballots[0]) < 2:
        return frozenset()
    c = ballots[0][1]
    if len(ballots) != 4 * len(cands) ** 2 or any(c not in b[:2] for b in ballots):
        return frozenset({c})
    return frozenset()


class CountedForm:
    """A rule evaluated on packed multisets of a list of distinct ballots.

    A form is built for multisets of at most ``n`` ballots and packs once:
    ``units[g]`` is one copy of ballot g, and a multiset packs to the sum
    of one unit per copy, so a multiset and its complement within any
    larger one differ by a subtraction.  ``codes`` maps a list of packed
    multisets to hashable winner codes and returns them with ``decode``,
    which maps a code to its winner set.
    """

    units: list[int]

    def codes(self, packed: list[int]):
        """The winner codes of ``packed``, and ``decode``."""
        return self.classify(packed), self.decode


class NotAllOneCounted(CountedForm):
    """Counted form of not_all_one: tallies and scores in bit fields of one int.

    ``units[g]`` is one copy of ballot g packed into one int: m tally
    fields (top-choice counts), m score fields (top-four counts), then the
    ballot total.  Code 0 means no winner.

    Every field is w = k + 1 bits wide, where 2**k exceeds n.  Doubling
    the tallies and adding 2**k - 1 - total to each field sets a field's
    guard bit k exactly when 2 * tally > total, with no carry between
    fields, so one addition runs the majority test for every candidate.
    That guard bit (a strict majority is unique) is the multiset's code,
    unless the blocking clause -- every other candidate scores exactly
    one -- holds; that is one masked compare of the score fields.
    """

    def __init__(self, cands: frozenset[int], groups: tuple[Ballot, ...], n: int):
        order = sorted(cands)
        pos = {c: i for i, c in enumerate(order)}
        m = len(order)
        k = n.bit_length()
        w = k + 1
        sh = w * m       # offset of the score fields
        tot = 2 * sh     # offset of the total
        self.units = [(1 << w * pos[b[0]]) + sum(1 << sh + w * pos[c] for c in b[:4])
                      + (1 << tot) for b in groups]
        fields = sum(1 << w * p for p in range(m))
        high = fields << k
        bias = [((1 << k) - 1 - t) * fields for t in range(n + 1)]
        decode = {0: frozenset()}
        for p, c in enumerate(order):
            decode[1 << w * p + k] = frozenset({c})
        ones = fields << sh
        others = {1 << w * p + k: (fields ^ 1 << w * p) * ((1 << w) - 1) << sh
                  for p in range(m)}

        def classify(vals: list[int]) -> list[int]:
            if m == 1:
                # the blocking clause ranges over the other candidates; with
                # none, a lone majority candidate wins
                return [((v << 1) + bias[v >> tot]) & high for v in vals]
            return [h if (h := ((v << 1) + bias[v >> tot]) & high)
                    and (v ^ ones) & others[h] else 0 for v in vals]

        self.classify, self.decode = classify, decode.__getitem__


class ExpandedForm(CountedForm):
    """A voter-anonymous rule's counted form when it has no kernel: the code
    is the count vector in base n + 1, which ``decode`` expands to ballots."""

    classify = staticmethod(list)

    def __init__(self, winners: Callable, cands: frozenset[int],
                 groups: tuple[Ballot, ...], n: int):
        radix, ones = n + 1, [(b,) for b in groups]
        self.units = [radix ** g for g in range(len(ones))]

        def decode(v: int) -> frozenset[int]:
            ballots = ()
            for one in ones:
                ballots += one * (v % radix)
                v //= radix
            return winners(cands, ballots)

        self.decode = decode


@dataclass(frozen=True, slots=True)
class Rule:
    """An atomic rule: its winner function, whether it ignores ballot order
    (``voter_anonymous``) and elects at most one (``tie_free``), and the
    class of its own counted kernel, if it has one (``counted``).

    Every voter-anonymous rule has a counted form, which ``form`` builds
    over a candidate set, its distinct ballots and a bound on the ballots:
    the kernel, or else the ``ExpandedForm``.  Adding and deleting voters
    classify running packed sums with its ``codes``, and voter partition
    count classes with their complements, a chunk at a time."""

    winners: Callable[[frozenset[int], tuple[Ballot, ...]], frozenset[int]]
    voter_anonymous: bool
    tie_free: bool
    counted: type | None = None

    def form(self, cands: frozenset[int], groups: tuple[Ballot, ...], n: int) -> CountedForm:
        """The counted form over ``cands`` and the distinct ballots ``groups``,
        for multisets of at most ``n`` ballots."""
        if not self.voter_anonymous:
            name = self.winners.__name__.removesuffix("_winners")
            raise WrongSystem(f"{name} is not voter-anonymous: it has no counted form")
        if self.counted is not None:
            return self.counted(cands, groups, n)
        return ExpandedForm(self.winners, cands, groups, n)


# ATOMIC_TAGS keeps this order; the benchmark's system list is built from it
RULES: dict[str, Rule] = {
    "plurality": Rule(plurality_winners, voter_anonymous=True, tie_free=False),
    "condorcet": Rule(condorcet_winners, voter_anonymous=True, tie_free=True),
    "not_all_one": Rule(not_all_one_winners, voter_anonymous=True, tie_free=True,
                        counted=NotAllOneCounted),
    "e_first": Rule(e_first_winners, voter_anonymous=True, tie_free=True),
    "e_last": Rule(e_last_winners, voter_anonymous=True, tie_free=True),
    "e_null": Rule(e_null_winners, voter_anonymous=True, tie_free=True),
    "e0_solo": Rule(e0_solo_winners, voter_anonymous=True, tie_free=True),
    "e1_prefix": Rule(e1_prefix_winners, voter_anonymous=False, tie_free=True),
    "e0_single": Rule(e0_single_winners, voter_anonymous=True, tie_free=True),
    "e1_tri": Rule(e1_tri_winners, voter_anonymous=False, tie_free=True),
    "e1_tri_even": Rule(e1_tri_even_winners, voter_anonymous=False, tie_free=True),
    "e0_dfirst": Rule(e0_dfirst_winners, voter_anonymous=False, tie_free=True),
    "e1_second": Rule(e1_second_winners, voter_anonymous=False, tie_free=True),
}
ATOMIC_TAGS = tuple(RULES)


def route(sid: SystemId, cands: frozenset[int]) -> SystemId:
    """The constituent a hybrid dispatches ``cands`` to (identity if atomic).

    With at least one candidate and all candidate names sharing a residue i
    modulo the number of constituents k, the i-th constituent handles the
    election; otherwise (including the empty candidate set) the default does.
    """
    if not sid.is_hybrid:
        return sid
    k = len(sid.constituents)
    if cands:
        residues = {c % k for c in cands}
        if len(residues) == 1:
            return sid.constituents[residues.pop()]
    return sid.default_constituent


def raw_winners(sid: SystemId, cands: frozenset[int],
                ballots: tuple[Ballot, ...]) -> frozenset[int]:
    """Winner set on a raw (candidates, ballots) pair. Hot-loop entry point."""
    if not cands:
        return frozenset()
    return RULES[route(sid, cands).tag].winners(cands, ballots)


def winners(sid: SystemId, e: Election) -> frozenset[int]:
    """Winner set of ``e`` under system ``sid``."""
    return raw_winners(sid, e.candidates, e.ballots)
