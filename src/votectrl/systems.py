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
    """A rule evaluated on many packed multisets of distinct ballots at once.

    A form is built for multisets of at most ``n`` ballots and packs once:
    ``units[g]`` is one copy of ballot g, and a multiset packs to the sum of
    one unit per copy, a natural below 2**width, so its complement within a
    larger multiset is a subtraction.  Multiset j of a lane int sits in
    bits [j*width, (j+1)*width), so one addition acts on every lane.
    ``codes(lanes, count)`` returns one hashable winner code per lane, and
    ``decode``, which maps a code to its winner set.
    """

    units: list[int]
    width: int   # bits per lane, a multiple of 8

    def lanes(self, packed: Iterable[int]) -> int:
        """The packed multisets ``packed``, one per lane."""
        size = self.width >> 3
        return int.from_bytes(b"".join([v.to_bytes(size, "little") for v in packed]), "little")

    def ones(self, count: int) -> int:
        """A 1 in each of ``count`` lanes; times v, v in every lane."""
        return ((1 << count * self.width) - 1) // ((1 << self.width) - 1)


class NotAllOneCounted(CountedForm):
    """Counted form of not_all_one: tallies and scores in bit fields.

    A lane holds a tally field per top choice (a candidate some distinct
    ballot ranks first; no other can hold a strict majority), a top-four
    score field per candidate, top choices first in the same order, and a
    spare bit.  Fields are w = k + 1 bits, 2**k > n.  A unit adds 2 to its
    top choice's tally field and takes 1 from every tally field; ``codes``
    adds 2**k - 1 to each, so guard bit k is set exactly when 2 * tally >
    total, with no borrow between fields.  The blocking clause (every other
    candidate scores exactly one) is one masked compare of the score fields
    less the unique majority's own, carried into the spare bit.  A lane's
    code is 1 + its winner's index among the top choices, or 0 for none.
    """

    def __init__(self, cands: frozenset[int], groups: tuple[Ballot, ...], n: int):
        tops = sorted({b[0] for b in groups})
        order = tops + sorted(cands.difference(tops))
        pos = {c: i for i, c in enumerate(order)}
        t, m, k = len(tops), len(order), n.bit_length()
        w = k + 1
        sh = w * t       # offset of the score fields
        size = 1 if t < 255 else 2 if t < 65535 else 4   # bytes per code
        self.width = -(-(w * (t + m) + 1) // (8 * size)) * 8 * size
        self.k, self.w, self.sh, self.t, self.spare = k, w, sh, t, self.width - 1
        tallies = ((1 << sh) - 1) // ((1 << w) - 1)   # a 1 in each tally field
        scores = ((1 << w * m) - 1) // ((1 << w) - 1) << sh
        self.units = [(2 << w * pos[b[0]]) - tallies + sum([1 << sh + w * pos[c] for c in b[:4]])
                      for b in groups]
        # with no other candidate, fill always carries: the blocking clause cannot trigger
        self.fields = (((1 << k) - 1) * tallies, scores, ((1 << k) - 1) * scores, scores << k,
                       tallies << k, (1 << self.spare) - (m > 1), 1 << self.spare)
        self.spread: dict[int, tuple[int, ...]] = {}   # fields in every lane, by count
        # codes are read in the host's byte order
        self.fmt, self.step = "BHI"[size.bit_length() - 1], self.width // (8 * size)
        keys = memoryview(b"".join([p.to_bytes(size, "little") for p in range(t + 1)]))
        self.decode = dict(zip(keys.cast(self.fmt),
                               [frozenset()] + [frozenset({c}) for c in tops])).__getitem__

    def codes(self, lanes: int, count: int):
        """The winner codes of ``count`` lanes, and ``decode``."""
        if count not in self.spread:
            self.spread[count] = tuple(map(self.ones(count).__mul__, self.fields))
        zero, ones, low, score_guards, tally_guards, fill, spare = self.spread[count]
        x = lanes + zero
        top = x & tally_guards   # the majority's guard bit
        other = ((x ^ ones) + low) & (score_guards ^ top << self.sh)   # scores != 1
        free = (other + fill & spare) >> self.spare   # 1 when not blocked
        code = top >> self.k & free
        for p in range(1, self.t):
            code += (top >> self.w * p + self.k & free) * (p + 1)
        data = code.to_bytes(count * self.width >> 3, "little")
        return memoryview(data).cast(self.fmt)[::self.step], self.decode


class ExpandedForm(CountedForm):
    """A voter-anonymous rule's counted form when it has no kernel: a lane
    holds the count vector in base n + 1, the tuple of its bytes is the
    code, and ``decode`` expands it to ballots for the winner function."""

    def __init__(self, winners: Callable, cands: frozenset[int],
                 groups: tuple[Ballot, ...], n: int):
        radix, ones = n + 1, [(b,) for b in groups]
        self.units = [radix ** g for g in range(len(ones))]
        self.width = -(-(radix ** len(ones)).bit_length() // 8) * 8

        def decode(code: tuple[int, ...]) -> frozenset[int]:
            v, ballots = int.from_bytes(code, "little"), ()
            for one in ones:
                ballots += one * (v % radix)
                v //= radix
            return winners(cands, ballots)

        self.decode = decode

    def codes(self, lanes: int, count: int):
        """The winner codes of ``count`` lanes, and ``decode``."""
        data = iter(lanes.to_bytes(count * self.width >> 3, "little"))
        return list(zip(*[data] * (self.width >> 3))), self.decode


@dataclass(frozen=True, slots=True)
class Rule:
    """An atomic rule: its winner function, whether it ignores ballot order
    (``voter_anonymous``) and elects at most one (``tie_free``), and the
    class of its own counted kernel, if it has one (``counted``).

    Every voter-anonymous rule has a counted form, which ``form`` builds
    over a candidate set, its distinct ballots and a bound on the ballots:
    the kernel, or else the ``ExpandedForm``.  Its ``codes`` classifies a
    lane int at a time: adding and deleting voters a chunk of packed sums,
    voter partition a block of count classes and then its complements."""

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
