import pytest

from votectrl.control import (
    AddVoters, DeleteCandidates, DeleteVoters, PartitionCandidates,
    PartitionVoters, RunoffPartitionCandidates, CONSTRUCTIVE, DESTRUCTIVE, SHAPES,
    SPECS, TE,
)
from votectrl.errors import (
    InvariantViolation, ParityViolation, ParseError, TooManyEdges,
)
from votectrl.reductions import (
    GraphInstance, X3CInstance, even_half_vc_oracle, format_graph, format_x3c,
    odd_half_vc_oracle, parse_graph, parse_x3c, reduce_half_vc, reduce_vc_to_ccdc,
    reduce_x3c, source_answer, vc_exact_oracle, vc_oracle, verify_reduction,
    x3c_oracle, GADGETS, X3C_TARGETS, HALF_VC_TARGETS,
)
from votectrl.solvers import POLY_DECIDERS

COVERABLE = X3CInstance(range(1, 7), [{1, 2, 3}, {4, 5, 6}, {2, 3, 4}])
UNCOVERABLE = X3CInstance(range(1, 7), [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}])
TRIANGLE = GraphInstance({1, 2, 3}, [{1, 2}, {2, 3}, {1, 3}])
EDGE = GraphInstance({1, 2}, [{1, 2}])
PATH4 = GraphInstance({1, 2, 3, 4}, [{1, 2}, {2, 3}, {3, 4}])


# --- source problems ----------------------------------------------------------


def test_x3c_instance_validation():
    with pytest.raises(InvariantViolation):
        X3CInstance(range(1, 5), [])  # base not divisible by 3
    with pytest.raises(InvariantViolation):
        X3CInstance(range(1, 7), [{1, 2}])
    with pytest.raises(InvariantViolation):
        X3CInstance(range(1, 7), [{1, 2, 9}])


def test_x3c_oracle():
    assert x3c_oracle(COVERABLE)
    assert not x3c_oracle(UNCOVERABLE)
    assert x3c_oracle(X3CInstance([], []))  # the empty cover


def test_graph_validation():
    with pytest.raises(InvariantViolation):
        GraphInstance({1, 2}, [{1, 1}])
    with pytest.raises(InvariantViolation):
        GraphInstance({1, 2}, [{1, 3}])


def test_vc_oracles():
    assert not vc_oracle(TRIANGLE, 1)
    assert vc_oracle(TRIANGLE, 2)
    assert vc_exact_oracle(TRIANGLE, 2)
    assert not vc_exact_oracle(TRIANGLE, 5)
    assert odd_half_vc_oracle(TRIANGLE)  # (3+1)/2 = 2 covers the triangle
    assert even_half_vc_oracle(EDGE)
    assert even_half_vc_oracle(PATH4)  # {2, 3}
    with pytest.raises(ParityViolation):
        odd_half_vc_oracle(EDGE)
    with pytest.raises(ParityViolation):
        even_half_vc_oracle(TRIANGLE)


# --- constructions -------------------------------------------------------------


def test_dcdv_shape():
    inst = reduce_x3c(COVERABLE, "DCDV")
    assert isinstance(inst, DeleteVoters)
    assert inst.goal == DESTRUCTIVE
    assert inst.distinguished == 7  # first id above the base set
    assert inst.candidates == frozenset(range(1, 8))
    assert len(inst.ballots) == 3
    assert inst.ballots[0] == (7, 1, 2, 3, 4, 5, 6)  # d, the triple, the rest


def test_dcdv_limit_counts_spare_sets():
    # n = 3 sets, m/3 = 2 needed, so one set may be deleted
    assert reduce_x3c(COVERABLE, "DCDV").limit == 1
    short = X3CInstance(range(1, 7), [{1, 2, 3}])
    assert reduce_x3c(short, "DCDV").limit == 0  # clamped, trivially NO


def test_dcav_shape():
    inst = reduce_x3c(COVERABLE, "DCAV")
    assert isinstance(inst, AddVoters)
    assert inst.distinguished == 7
    assert inst.candidates == frozenset(range(1, 11))  # base + d + 3 padders
    assert inst.registered == ((7, 8, 9, 10, 1, 2, 3, 4, 5, 6),)
    assert len(inst.unregistered) == 3
    assert inst.limit == 2  # m/3


def test_dcpv_shape():
    inst = reduce_x3c(COVERABLE, "DCPV")
    assert isinstance(inst, PartitionVoters)
    assert inst.tie == TE
    # lead ballot, n filler ballots, n set ballots
    assert len(inst.ballots) == 1 + 3 + 3
    assert inst.ballots[1][0] == 8  # fillers are headed by the first padder


def test_x3c_equivalence_on_the_fixtures():
    assert X3C_TARGETS == ("DCDV", "DCAV", "DCPV")  # the benchmark's x3c-voter order
    for x3c in (COVERABLE, UNCOVERABLE):
        for target in X3C_TARGETS:
            report = verify_reduction(x3c, reduce_x3c(x3c, target))
            assert report.equivalent
            assert report.source_answer == x3c_oracle(x3c)


def test_reduce_x3c_rejects_unknown_target():
    with pytest.raises(InvariantViolation):
        reduce_x3c(COVERABLE, "CCAV")


def test_vc_to_ccdc_construction():
    inst = reduce_vc_to_ccdc(TRIANGLE, 2)
    assert isinstance(inst, DeleteCandidates)
    assert inst.goal == CONSTRUCTIVE
    assert inst.candidates == frozenset({0, 1, 2, 4, 6})
    assert inst.distinguished == 0
    assert inst.limit == 2
    # first two ballots fix the prefix structure; one ballot per edge follows
    assert inst.ballots[0][0] == 0
    assert inst.ballots[1][:2] == (1, 0)
    assert len(inst.ballots) == 2 + 3


def test_vc_to_ccdc_equivalence():
    for k in range(0, 4):
        assert verify_reduction(TRIANGLE, reduce_vc_to_ccdc(TRIANGLE, k)).equivalent
    with pytest.raises(InvariantViolation):
        reduce_vc_to_ccdc(TRIANGLE, 4)


def test_half_vc_parity_gates():
    with pytest.raises(ParityViolation):
        reduce_half_vc(EDGE, "CCRPC")
    with pytest.raises(ParityViolation):
        reduce_half_vc(TRIANGLE, "CCPC")
    with pytest.raises(InvariantViolation):
        reduce_half_vc(EDGE, "CCAV")


def test_ccrpc_construction_and_equivalence():
    inst = reduce_half_vc(TRIANGLE, "CCRPC")
    assert isinstance(inst, RunoffPartitionCandidates)
    assert inst.candidates == frozenset({0, 1, 3, 2, 4, 6})
    assert len(inst.ballots) == 1 + 3 * 2 // 2  # 1 + n(n-1)/2
    assert verify_reduction(TRIANGLE, inst).equivalent


def test_ccpc_construction_and_equivalence():
    for g in (EDGE, PATH4):
        inst = reduce_half_vc(g, "CCPC")
        assert isinstance(inst, PartitionCandidates)
        n = len(g.vertices)
        assert len(inst.ballots) == 1 + n * (n - 1) // 2
        assert verify_reduction(g, inst).equivalent


def test_destructive_family_construction_and_equivalence():
    for g in (EDGE, PATH4):
        n = len(g.vertices)
        for target in ("DCDC", "DCPC", "DCRPC"):
            inst = reduce_half_vc(g, target)
            assert inst.goal == DESTRUCTIVE
            assert len(inst.ballots) == (n + 4) ** 2
            assert inst.ballots[0][:2] == (1, 0)
            assert verify_reduction(g, inst).equivalent
    assert reduce_half_vc(PATH4, "DCDC").limit == 2  # n/2


def test_complete_graphs_fit_the_voter_budget():
    # K4's 6 edge ballots exactly fill the 1 + n(n-1)/2 = 7 voter budget; the
    # TooManyEdges guard is defensive (simple graphs cannot overflow it)
    k4 = GraphInstance({1, 2, 3, 4},
                       [{i, j} for i in range(1, 5) for j in range(i + 1, 5)])
    inst = reduce_half_vc(k4, "CCPC")
    assert len(inst.ballots) == 7
    assert issubclass(TooManyEdges, InvariantViolation)


def test_source_answer_dispatch():
    assert source_answer(COVERABLE, reduce_x3c(COVERABLE, "DCDV"))
    assert source_answer(TRIANGLE, reduce_vc_to_ccdc(TRIANGLE, 2))
    assert source_answer(TRIANGLE, reduce_half_vc(TRIANGLE, "CCRPC"))
    assert source_answer(EDGE, reduce_half_vc(EDGE, "DCPC")) == even_half_vc_oracle(EDGE)
    # the lookup is by source class and type code, so each pair names one row
    assert len({(g.kind, g.code) for g in GADGETS.values()}) == len(GADGETS)


def test_source_answer_refuses_a_target_the_source_cannot_build():
    with pytest.raises(InvariantViolation):
        source_answer(EDGE, reduce_x3c(COVERABLE, "DCDV"))
    with pytest.raises(InvariantViolation):
        source_answer(COVERABLE, reduce_half_vc(EDGE, "DCPC"))
    with pytest.raises(InvariantViolation):
        source_answer(COVERABLE, reduce_vc_to_ccdc(TRIANGLE, 2))


def coverage():
    """Each of the twenty control types -> (sources with a verified gadget
    for it, rule tags with a polynomial decider for it).  Every partition
    gadget is built under TE."""
    rows = {}
    for prefix, goal in (("CC", CONSTRUCTIVE), ("DC", DESTRUCTIVE)):
        for shape in SHAPES:
            for tie in ("-TE", "-TP") if SPECS[shape].has_tie else ("",):
                code = prefix + shape
                gadgets = tuple(name for name, target in GADGETS
                                if target == code and tie != "-TP")
                tags = tuple(t for s, g, t in POLY_DECIDERS if (s, g) == (shape, goal))
                rows[code + tie] = (gadgets, tags)
    return rows


HYBRIDS = ("hybrid", "hybrid_base")
DESTRUCTIVE_TAGS = ("e0_dfirst", "e1_second")


def test_coverage_of_the_twenty_control_types():
    assert coverage() == {
        "CCAC": ((), HYBRIDS),
        "CCDC": (("vc",), ("e1_prefix",)),
        "CCPC-TE": (("ehvc",), ("e1_tri_even",)),
        "CCPC-TP": ((), ("e1_tri_even",)),
        "CCRPC-TE": (("ohvc",), ("e1_tri",)),
        "CCRPC-TP": ((), ("e1_tri",)),
        "CCAV": ((), HYBRIDS),
        "CCDV": ((), HYBRIDS),
        "CCPV-TE": ((), ()),
        "CCPV-TP": ((), ()),
        "DCAC": ((), HYBRIDS),
        "DCDC": (("ehvc",), DESTRUCTIVE_TAGS),
        "DCPC-TE": (("ehvc",), DESTRUCTIVE_TAGS),
        "DCPC-TP": ((), DESTRUCTIVE_TAGS),
        "DCRPC-TE": (("ehvc",), DESTRUCTIVE_TAGS),
        "DCRPC-TP": ((), DESTRUCTIVE_TAGS),
        "DCAV": (("x3c",), HYBRIDS),
        "DCDV": (("x3c",), HYBRIDS),
        "DCPV-TE": (("x3c",), ()),
        "DCPV-TP": ((), ()),
    }


# --- text formats ---------------------------------------------------------------


def test_x3c_roundtrip():
    text = format_x3c(COVERABLE)
    assert parse_x3c(text) == COVERABLE
    assert text.startswith("base 1 2 3 4 5 6\n")


def test_x3c_parse_errors():
    with pytest.raises(ParseError):
        parse_x3c("set 1 2 3\n")
    with pytest.raises(ParseError):
        parse_x3c("base 1 2 3 4\n")
    with pytest.raises(ParseError):
        parse_x3c("base 1 2 3\ntriple 1 2 3\n")


def test_graph_roundtrip_and_count_form():
    assert parse_graph(format_graph(PATH4)) == PATH4
    counted = parse_graph("vertices 3\nedge 1 2\nedge 2 3\n")
    assert counted == GraphInstance({1, 2, 3}, [{1, 2}, {2, 3}])


def test_graph_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("edge 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("vertices 2\nedge 1 2 3\n")
    with pytest.raises(ParseError):
        parse_graph("vertices 2\nedge 1 5\n")


# a universe line appears once and names distinct ids; a graph has at most
# 16 vertices in either spelling
@pytest.mark.parametrize("parse, text, message", [
    (parse_x3c, "base 1 2 3\nbase 4 5 6\nset 4 5 6\n", "line 2: repeated 'base' line"),
    (parse_x3c, "base 1 1 2 3\nset 1 2 3\n", "line 1: duplicate candidate ids"),
    (parse_graph, "vertices 2\nvertices 1 2 3\n", "line 2: repeated 'vertices' line"),
    (parse_graph, "vertices 1 1 2\nedge 1 2\n", "line 1: duplicate candidate ids"),
    (parse_graph, "vertices " + " ".join(map(str, range(18))) + "\n",
     "line 1: more than 16 vertices"),
    (parse_graph, "vertices 17\n", "line 1: more than 16 vertices"),
], ids=["repeated-base", "duplicate-base", "repeated-vertices", "duplicate-vertices",
        "18-listed-vertices", "17-counted-vertices"])
def test_source_text_checks_its_universe_line(parse, text, message):
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_source_text_keeps_repeated_sets_and_the_lone_vertex_spelling():
    assert parse_x3c("base 1 2 3\nset 1 2 3\nset 1 2 3\n").family == (
        frozenset({1, 2, 3}),) * 2
    assert parse_graph("vertices 5 5\n") == GraphInstance({5}, [])
    assert parse_graph("vertices " + " ".join(map(str, range(16))) + "\n").vertices == (
        frozenset(range(16)))
