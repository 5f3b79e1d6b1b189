"""Source NP-complete problems and their transformations into control instances.

Each ``reduce_*`` function is a deterministic construction: fresh candidate
ids are the smallest naturals above the used range (with the parities the
hybrid routing needs), vertex relabeling is by ascending original id, and
every "remaining candidates in some arbitrary order" tail is ascending.
``verify_reduction`` checks the answer-preservation of a single instance by
running brute-force oracles on both sides.  ``SOURCES`` is the one list of
which gadgets exist, by source problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .control import (
    AddVoters, ControlInstance, DeleteCandidates, DeleteVoters, PartitionVoters,
    CONSTRUCTIVE, DESTRUCTIVE, SPECS, TE,
)
from .core import Ballot, _content_lines, _parse_candidates, _parse_naturals
from .errors import (
    BudgetExceeded, InvariantViolation, ParityViolation, ParseError, TooManyEdges,
)
from .solvers import brute_force_decide
from .systems import atomic, hybrid


@dataclass(frozen=True)
class X3CInstance:
    """Exact Cover by Three-Sets: base set B plus a family of 3-subsets of B."""

    base: frozenset[int]
    family: tuple[frozenset[int], ...]

    def __init__(self, base: Iterable[int], family: Iterable[Iterable[int]]):
        b = frozenset(base)
        fam = tuple(frozenset(s) for s in family)
        if len(b) % 3 != 0:
            raise InvariantViolation("base-set size must be divisible by 3")
        for s in fam:
            if len(s) != 3 or not s <= b:
                raise InvariantViolation(f"{sorted(s)} is not a 3-subset of the base set")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "family", fam)


@dataclass(frozen=True)
class GraphInstance:
    """A simple undirected graph."""

    vertices: frozenset[int]
    edges: frozenset[frozenset[int]]

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]]):
        vs = frozenset(vertices)
        es = frozenset(frozenset(e) for e in edges)
        for e in es:
            if len(e) != 2 or not e <= vs:
                raise InvariantViolation(f"{sorted(e)} is not an edge over the vertices")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)


# the vertex-cover oracles enumerate subsets of at most this many vertices
MAX_VERTICES = 16


def x3c_oracle(instance: X3CInstance) -> bool:
    """Does some subfamily cover every base element exactly once?"""
    n = len(instance.family)
    if n > 20:
        raise BudgetExceeded(f"2^{n} subfamilies exceed budget {2 ** 20}")
    pos = {e: i for i, e in enumerate(sorted(instance.base))}
    masks = [sum(1 << pos[e] for e in s) for s in instance.family]
    m = len(instance.base)
    full = (1 << m) - 1
    for pick in range(2 ** n):
        union = used = 0
        for i in range(n):
            if pick >> i & 1:
                union |= masks[i]
                used += 3
        if union == full and used == m:
            return True
    return False


def _covers(vertex_subset: frozenset[int], edges: frozenset[frozenset[int]]) -> bool:
    return all(e & vertex_subset for e in edges)


def vc_oracle(g: GraphInstance, k: int) -> bool:
    """Does the graph have a vertex cover of size at most k?"""
    return any(vc_exact_oracle(g, size) for size in range(min(k, len(g.vertices)) + 1))


def vc_exact_oracle(g: GraphInstance, size: int) -> bool:
    """Does the graph have a vertex cover of exactly the given size?"""
    if len(g.vertices) > MAX_VERTICES:
        raise BudgetExceeded(f"vertex-cover oracle limited to {MAX_VERTICES} vertices")
    vs = sorted(g.vertices)
    if not 0 <= size <= len(vs):
        return False
    return any(_covers(frozenset(combo), g.edges)
               for combo in combinations(vs, size))


def odd_half_vc_oracle(g: GraphInstance) -> bool:
    n = len(g.vertices)
    if n % 2 == 0 or n <= 1:
        raise ParityViolation("odd-half vertex cover needs an odd number > 1 of vertices")
    return vc_exact_oracle(g, (n + 1) // 2)


def even_half_vc_oracle(g: GraphInstance) -> bool:
    n = len(g.vertices)
    if n % 2 == 1 or n == 0:
        raise ParityViolation("even-half vertex cover needs an even number > 0 of vertices")
    return vc_exact_oracle(g, n // 2)


def _ballot(prefix: Iterable[int], universe: frozenset[int]) -> Ballot:
    head = tuple(prefix)
    return head + tuple(sorted(universe - frozenset(head)))


def reduce_x3c(instance: X3CInstance, target: str) -> ControlInstance:
    """Destructive voter control on the not-all-one rule, from exact cover.

    The distinguished candidate d tops every set ballot; d stays the unique
    winner unless the surviving/added set ballots give every base element a
    score of exactly one -- i.e. unless they form an exact cover.
    """
    if target not in X3C_TARGETS:
        raise InvariantViolation(f"target must be one of {X3C_TARGETS}")
    base = instance.base
    m, n = len(base), len(instance.family)
    d = max(base, default=-1) + 1
    system = atomic("not_all_one")

    if target == "DCDV":
        cands = base | {d}
        ballots = tuple(_ballot([d] + sorted(s), cands) for s in instance.family)
        # the construction presumes n >= m/3; short families get the
        # trivially unachievable limit 0 instead of a negative one
        limit = max(0, n - m // 3)
        return DeleteVoters(system, cands, d, ballots, limit, DESTRUCTIVE)

    c1, c2, c3 = d + 1, d + 2, d + 3
    cands = base | {d, c1, c2, c3}
    set_ballots = tuple(_ballot([d] + sorted(s), cands) for s in instance.family)
    lead = _ballot([d, c1, c2, c3], cands)
    if target == "DCAV":
        # the intended limit is m/3; it is capped at the pool size, which
        # forbids nothing (no larger subfamily exists to add)
        limit = min(m // 3, n)
        return AddVoters(system, cands, d, (lead,), set_ballots, limit, DESTRUCTIVE)

    filler = tuple(_ballot([c1], cands) for _ in range(n))
    return PartitionVoters(system, cands, d, (lead,) + filler + set_ballots,
                           TE, DESTRUCTIVE)


def _relabel(g: GraphInstance) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """Vertices become 2, 4, ..., 2n by ascending original id; edges sorted."""
    mapping = {v: 2 * (i + 1) for i, v in enumerate(sorted(g.vertices))}
    edges = sorted(tuple(sorted(mapping[v] for v in e)) for e in g.edges)
    return mapping, edges


def reduce_vc_to_ccdc(g: GraphInstance, k: int) -> ControlInstance:
    """Vertex Cover into constructive deleting-candidates on hybrid(e0_solo, e1_prefix)."""
    n = len(g.vertices)
    if not 0 <= k <= n:
        raise InvariantViolation("cover bound k must satisfy 0 <= k <= n")
    _, edges = _relabel(g)
    cands = frozenset({0, 1}) | frozenset(range(2, 2 * n + 1, 2))
    ballots = [_ballot([0], cands), _ballot([1, 0], cands)]
    ballots += [_ballot([i, j, 0], cands) for i, j in edges]
    system = hybrid("e0_solo", "e1_prefix")
    return DeleteCandidates(system, cands, 0, tuple(ballots), k, CONSTRUCTIVE)


def reduce_half_vc(g: GraphInstance, target: str) -> ControlInstance:
    """Odd/Even Half Vertex Cover into candidate control on a two-way hybrid."""
    if target not in HALF_VC_TARGETS:
        raise InvariantViolation(f"target must be one of {HALF_VC_TARGETS}")
    n = len(g.vertices)
    if target == "CCRPC":
        if n % 2 == 0 or n <= 1:
            raise ParityViolation("run-off partition target needs odd n > 1")
    elif n % 2 == 1 or n == 0:
        raise ParityViolation(f"{target} target needs even n > 0")
    _, edges = _relabel(g)
    evens = frozenset(range(2, 2 * n + 1, 2))

    if target == "CCRPC":
        cands = frozenset({0, 1, 3}) | evens
        first = _ballot([0, 3], cands)
        edge_ballots = [_ballot([3, i, j, 0], cands) for i, j in edges]
        total = 1 + n * (n - 1) // 2
        system = hybrid("e0_single", "e1_tri")
    else:
        cands = frozenset({0, 1}) | evens
        edge_ballots = [_ballot([i, j, 0], cands) for i, j in edges]
        if target == "CCPC":
            first = _ballot([0, 1], cands)
            total = 1 + n * (n - 1) // 2
            system = hybrid("e0_single", "e1_tri_even")
        else:
            first = _ballot([1, 0], cands)
            total = 4 * (n // 2 + 2) ** 2
            system = hybrid("e0_dfirst", "e1_second")

    if 1 + len(edge_ballots) > total:
        raise TooManyEdges(f"{len(edge_ballots)} edge ballots overflow {total} voters")
    ballots = (first,) + tuple(edge_ballots)
    ballots += (first,) * (total - len(ballots))

    # DCDC may delete n/2 candidates; the partition targets use TE
    shape = SPECS[target[2:]]
    bound = {"limit": n // 2} if shape.has_k else {"tie": TE}
    goal = CONSTRUCTIVE if target.startswith("CC") else DESTRUCTIVE
    return shape.instance(system=system, candidates=cands, distinguished=0,
                          ballots=ballots, goal=goal, **bound)


@dataclass(frozen=True)
class ReductionReport:
    source_answer: bool
    target_answer: bool

    @property
    def equivalent(self) -> bool:
        return self.source_answer == self.target_answer


def source_answer(source, target: ControlInstance) -> bool:
    """Run the oracle of the source problem whose gadget builds this target."""
    for _, kind, _, oracle, targets in SOURCES.values():
        if isinstance(source, kind) and target.type_code in targets:
            return oracle(source, target)
    raise InvariantViolation(
        f"no {type(source).__name__} gadget builds a {target.type_code} instance")


def verify_reduction(source, target: ControlInstance) -> ReductionReport:
    """Compare the source oracle with the brute-force control answer."""
    return ReductionReport(source_answer(source, target),
                           brute_force_decide(target).answer)


# --- text formats ----------------------------------------------------------


def parse_x3c(text: str) -> X3CInstance:
    """Parse one ``base 1 2 3`` line of distinct ids and ``set i j k`` lines."""
    base: list[int] | None = None
    family: list[list[int]] = []
    for lineno, line in _content_lines(text):
        key, *tokens = line.split()
        if key == "base":
            if base is not None:
                raise ParseError(f"line {lineno}: repeated 'base' line")
            base = _parse_candidates(tokens, lineno)
        elif key == "set":
            family.append(_parse_naturals(tokens, lineno))
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if base is None:
        raise ParseError("missing 'base' line")
    try:
        return X3CInstance(base, family)
    except InvariantViolation as exc:
        raise ParseError(str(exc)) from exc


def format_x3c(instance: X3CInstance) -> str:
    lines = ["base " + " ".join(map(str, sorted(instance.base)))]
    lines += ["set " + " ".join(map(str, sorted(s))) for s in instance.family]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> GraphInstance:
    """Parse one ``vertices ...`` line plus ``edge i j`` lines.

    A single token after ``vertices`` is a count (labels 1..N); several
    tokens are distinct explicit vertex ids, except that a lone id is
    written twice, since alone it reads as a count.  Either way there are
    at most MAX_VERTICES vertices.
    """
    vertices: Sequence[int] | None = None
    edges: list[list[int]] = []
    for lineno, line in _content_lines(text):
        key, *tokens = line.split()
        if key == "vertices":
            if vertices is not None:
                raise ParseError(f"line {lineno}: repeated 'vertices' line")
            if len(tokens) == 1:
                vertices = range(1, _parse_naturals(tokens, lineno)[0] + 1)
            else:
                lone = len(tokens) == 2 and tokens[0] == tokens[1]
                vertices = _parse_candidates(tokens[:1] if lone else tokens, lineno)
            if len(vertices) > MAX_VERTICES:
                raise ParseError(f"line {lineno}: more than {MAX_VERTICES} vertices")
        elif key == "edge":
            ids = _parse_naturals(tokens, lineno)
            if len(ids) != 2:
                raise ParseError(f"line {lineno}: an edge needs two endpoints")
            edges.append(ids)
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    if vertices is None:
        raise ParseError("missing 'vertices' line")
    try:
        return GraphInstance(vertices, edges)
    except InvariantViolation as exc:
        raise ParseError(str(exc)) from exc


def format_graph(g: GraphInstance) -> str:
    # a lone id would read back as a vertex count, so it is written twice
    ids = sorted(g.vertices) * (2 if len(g.vertices) == 1 else 1)
    lines = ["vertices " + " ".join(map(str, ids))]
    lines += ["edge " + " ".join(map(str, sorted(e))) for e in sorted(
        g.edges, key=lambda e: sorted(e))]
    return "\n".join(lines) + "\n"


# --- the reduction table ---------------------------------------------------


def _reduce_vc(g: GraphInstance, target: str, k: int | None) -> ControlInstance:
    if k is None:
        raise InvariantViolation("vc reduction needs a cover bound k (--k)")
    return reduce_vc_to_ccdc(g, k)


def _without_k(reduce):
    """The builder of a source whose gadgets take no cover bound."""
    def build(source, target: str, k: int | None) -> ControlInstance:
        if k is not None:
            raise InvariantViolation("only vc takes a cover bound k (--k)")
        return reduce(source, target)
    return build


# source problem -> (parser, source class, builder(source, target code, k),
# oracle(source, target instance), target codes).  The first target is the
# default; every partition target is built under TE.
SOURCES = {
    "x3c": (parse_x3c, X3CInstance, _without_k(reduce_x3c),
            lambda x, inst: x3c_oracle(x), ("DCDV", "DCAV", "DCPV")),
    "vc": (parse_graph, GraphInstance, _reduce_vc,
           lambda g, inst: vc_oracle(g, inst.limit), ("CCDC",)),
    "ohvc": (parse_graph, GraphInstance, _without_k(reduce_half_vc),
             lambda g, inst: odd_half_vc_oracle(g), ("CCRPC",)),
    "ehvc": (parse_graph, GraphInstance, _without_k(reduce_half_vc),
             lambda g, inst: even_half_vc_oracle(g), ("CCPC", "DCDC", "DCPC", "DCRPC")),
}
X3C_TARGETS = SOURCES["x3c"][4]
HALF_VC_TARGETS = SOURCES["ohvc"][4] + SOURCES["ehvc"][4]
