"""Election data model: candidates, ballots, restriction, and the name codec.

Candidates are naturals everywhere inside the library; string names exist
only at the boundary, via :class:`NameCodec`.  Ballots are ordered (ballot
position is meaningful to several systems), so an election is a candidate
set plus a *list* of ballots.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InvalidName, ParseError

Ballot = tuple[int, ...]


def restrict(ballot: Sequence[int], subset: Iterable[int]) -> Ballot:
    """Project a ballot onto ``subset``, preserving relative order.

    Candidates in ``subset`` that do not appear in the ballot are ignored;
    an empty subset yields the empty ballot.
    """
    keep = frozenset(subset)
    return tuple(c for c in ballot if c in keep)


def unique_winner(winners: Iterable[int], c: int) -> bool:
    """True iff the winner set is exactly ``{c}``."""
    ws = set(winners)
    return len(ws) == 1 and c in ws


def check_ballots(ballots: Iterable[Sequence[int]],
                  universe: frozenset[int]) -> tuple[Ballot, ...]:
    """The ballots as tuples; raises ValueError unless each ranks ``universe``."""
    out = tuple(map(tuple, ballots))
    for b in out:
        if len(b) != len(universe) or frozenset(b) != universe:
            raise ValueError(f"ballot {b} is not a permutation of {sorted(universe)}")
    return out


@dataclass(frozen=True)
class Election:
    """A candidate set together with an ordered list of complete ballots."""

    candidates: frozenset[int]
    ballots: tuple[Ballot, ...]

    def __init__(self, candidates: Iterable[int], ballots: Iterable[Sequence[int]]):
        cands = frozenset(candidates)
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "ballots", check_ballots(ballots, cands))

    def restricted(self, subset: Iterable[int]) -> "Election":
        """The election over ``candidates ∩ subset`` with projected ballots."""
        keep = self.candidates & frozenset(subset)
        return Election(keep, tuple(restrict(b, keep) for b in self.ballots))


@dataclass(frozen=True)
class NameCodec:
    """Bijection between strings over an alphabet and the naturals.

    Strings are enumerated length-first, then lexicographically by alphabet
    position; the i-th string (0-based) maps to i.  Over ``a..z`` this is
    bijective base-26: "" = 0, "a" = 1, ..., "z" = 26, "aa" = 27.
    """

    alphabet: str = string.ascii_lowercase
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be nonempty without repeats")
        object.__setattr__(self, "_index", {ch: i for i, ch in enumerate(self.alphabet)})

    def encode(self, name: str) -> int:
        n = 0
        base = len(self.alphabet)
        for ch in name:
            if ch not in self._index:
                raise InvalidName(f"symbol {ch!r} not in alphabet {self.alphabet!r}")
            n = n * base + self._index[ch] + 1
        return n

    def decode(self, n: int) -> str:
        if n < 0:
            raise InvalidName("only naturals have names")
        base = len(self.alphabet)
        out = []
        while n > 0:
            n, rem = divmod(n - 1, base)
            out.append(self.alphabet[rem])
        return "".join(reversed(out))


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank, non-comment lines with 1-based line numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_ids(tokens: list[str], lineno: int) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: expected integer ids, got {tokens}") from exc


def _parse_naturals(tokens: list[str], lineno: int) -> list[int]:
    """Ids of a line that names a universe; candidate ids are naturals."""
    ids = _parse_ids(tokens, lineno)
    if ids and min(ids) < 0:
        raise ParseError(f"line {lineno}: ids must be naturals, got {min(ids)}")
    return ids


def _parse_candidates(tokens: list[str], lineno: int) -> list[int]:
    """The ids of a candidate-set line: distinct naturals."""
    ids = _parse_naturals(tokens, lineno)
    if len(set(ids)) != len(ids):
        raise ParseError(f"line {lineno}: duplicate candidate ids")
    return ids


def parse_ballot_line(body: str, lineno: int = 0) -> Ballot:
    """Parse the ``<id> > <id> > ...`` tail of a ballot line."""
    if not body.strip():
        return ()
    return tuple(_parse_ids(body.split(">"), lineno))  # int() skips the spaces


def parse_election(text: str) -> Election:
    """Parse the line-based election format.

    First content line: ``candidates <id> <id> ...``; each following line:
    ``ballot <id> > <id> > ...``.  Blank lines and ``#`` comments ignored.
    """
    lines = _content_lines(text)
    if not lines or not lines[0][1].startswith("candidates"):
        raise ParseError("election file must start with a 'candidates' line")
    lineno, header = lines[0]
    candidates = _parse_candidates(header.split()[1:], lineno)
    ballots = []
    for lineno, line in lines[1:]:
        if not line.startswith("ballot"):
            raise ParseError(f"line {lineno}: expected a 'ballot' line, got {line!r}")
        ballots.append(parse_ballot_line(line[len("ballot"):], lineno))
    try:
        return Election(candidates, ballots)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_ballot(ballot: Sequence[int]) -> str:
    return " > ".join(map(str, ballot))


def format_election(e: Election) -> str:
    lines = ["candidates " + " ".join(str(c) for c in sorted(e.candidates))]
    lines.extend("ballot " + format_ballot(b) for b in e.ballots)
    return "\n".join(lines) + "\n"
