import pytest

from votectrl.cli import main, poly_decide, render_action
from votectrl.control import (
    AddSet, CandidatePartition, DeleteSet, DeleteVoterSet, AddVoterSet,
    VoterPartition, SPECS,
)
from votectrl.reductions import SOURCES

ELECTION = "candidates 0 1 2\nballot 2 > 1 > 0\n"

CCAC = """\
type CCAC
system hybrid:e_first,e_last
distinguished 0
candidates 0 2
spoilers 1
ballot 2 > 1 > 0
"""

DCDC_NO = """\
type DCDC
system plurality
distinguished 0
k 1
candidates 0 1
ballot 0 > 1
"""

X3C_YES = "base 1 2 3 4 5 6\nset 1 2 3\nset 4 5 6\nset 2 3 4\n"
GRAPH = "vertices 3\nedge 1 2\nedge 2 3\nedge 1 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_render_action():
    assert render_action(AddSet(frozenset({1}))) == "add {1}"
    assert render_action(DeleteSet(frozenset({2, 1}))) == "delete {1,2}"
    assert (render_action(CandidatePartition(frozenset({0, 1}), frozenset({2})))
            == "partition {0,1} | {2}")
    assert (render_action(VoterPartition(frozenset({0, 2})))
            == "voter-partition side1 {0,2}")
    assert render_action(AddVoterSet(frozenset({0}))) == "add-voters {0}"
    assert render_action(DeleteVoterSet(frozenset({1}))) == "delete-voters {1}"


def test_winners(tmp_path, capsys):
    f = tmp_path / "e.txt"
    f.write_text(ELECTION)
    code, out, _ = run(capsys, "winners", "--system", "hybrid:e_first,e_last",
                       "--election", str(f))
    assert code == 0
    assert out.strip() == "winners: 0"


def test_winners_bad_system(tmp_path, capsys):
    f = tmp_path / "e.txt"
    f.write_text(ELECTION)
    code, _, err = run(capsys, "winners", "--system", "borda",
                       "--election", str(f))
    assert code == 2
    assert "error" in err


def test_winners_missing_file(capsys):
    code, _, err = run(capsys, "winners", "--system", "plurality",
                       "--election", "/nonexistent")
    assert code == 2


def test_decide_yes_with_witness(tmp_path, capsys):
    f = tmp_path / "i.txt"
    f.write_text(CCAC)
    code, out, _ = run(capsys, "decide", "--instance", str(f))
    assert code == 0
    assert out.strip() == "YES witness add {1}"


def test_decide_no(tmp_path, capsys):
    f = tmp_path / "i.txt"
    f.write_text(DCDC_NO)
    code, out, _ = run(capsys, "decide", "--instance", str(f))
    assert code == 0
    assert out.strip() == "NO"


def test_decide_poly_solver(tmp_path, capsys):
    f = tmp_path / "i.txt"
    f.write_text(CCAC)
    code, out, _ = run(capsys, "decide", "--instance", str(f),
                       "--solver", "poly")
    assert code == 0
    assert out.startswith("YES")


def test_decide_poly_uncovered_instance(tmp_path, capsys):
    f = tmp_path / "i.txt"
    f.write_text(DCDC_NO)  # plurality DCDC has no registered polynomial decider
    code, _, err = run(capsys, "decide", "--instance", str(f), "--solver", "poly")
    assert code == 2
    assert "error" in err


def test_decide_budget_exceeded(tmp_path, capsys):
    f = tmp_path / "i.txt"
    ballots = "".join("ballot 0 > 1\n" for _ in range(12))
    f.write_text("type CCDV\nsystem plurality\ndistinguished 1\nk 6\n"
                 "candidates 0 1\n" + ballots)
    code, _, err = run(capsys, "decide", "--instance", str(f), "--budget", "10")
    assert code == 3


def test_decide_negative_budget_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "i.txt"
    f.write_text(DCDC_NO)
    code, out, err = run(capsys, "decide", "--instance", str(f), "--budget", "-1")
    assert code == 2 and out == ""
    assert "expected a count >= 0, got -1" in err


def test_reduce_then_decide_roundtrip(tmp_path, capsys):
    src = tmp_path / "x3c.txt"
    src.write_text(X3C_YES)
    out_path = tmp_path / "inst.txt"
    code, out, _ = run(capsys, "reduce", "--from", "x3c", "--to", "DCDV",
                       "--input", str(src), "--output", str(out_path))
    assert code == 0
    assert "DCDV" in out
    code, out, _ = run(capsys, "decide", "--instance", str(out_path))
    assert code == 0
    assert out.startswith("YES")  # the family has an exact cover


def test_reduce_rejects_bad_target(tmp_path, capsys):
    src = tmp_path / "x3c.txt"
    src.write_text(X3C_YES)
    code, _, err = run(capsys, "reduce", "--from", "x3c", "--to", "CCDC",
                       "--input", str(src), "--output", str(tmp_path / "o"))
    assert code == 2


def test_verify_x3c(tmp_path, capsys):
    src = tmp_path / "x3c.txt"
    src.write_text(X3C_YES)
    for to in ("DCDV", "DCAV", "DCPV-TE"):
        code, out, _ = run(capsys, "verify", "--from", "x3c", "--to", to,
                           "--input", str(src))
        assert code == 0
        assert out.strip().endswith("PASS")
        assert "source=YES target=YES" in out


def test_verify_vc_needs_k(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    code, _, err = run(capsys, "verify", "--from", "vc", "--input", str(src))
    assert code == 2  # --k required
    code, out, _ = run(capsys, "verify", "--from", "vc", "--k", "2",
                       "--input", str(src))
    assert code == 0
    assert "PASS" in out


def test_verify_default_targets(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    code, out, _ = run(capsys, "verify", "--from", "ohvc", "--input", str(src))
    assert code == 0
    assert out.startswith("CCRPC")
    edge = tmp_path / "edge.txt"
    edge.write_text("vertices 2\nedge 1 2\n")
    code, out, _ = run(capsys, "verify", "--from", "ehvc", "--input", str(edge))
    assert code == 0
    assert out.startswith("CCPC") and "PASS" in out


# a tiny input and the extra arguments per source problem
SOURCE_INPUTS = {
    "x3c": (X3C_YES, ()),
    "vc": (GRAPH, ("--k", "2")),
    "ohvc": (GRAPH, ()),
    "ehvc": ("vertices 2\nedge 1 2\n", ()),
}
SOURCE_TARGETS = [(name, t) for name, entry in SOURCES.items() for t in entry[4]]


def _verify(tmp_path, capsys, source, *extra):
    text, args = SOURCE_INPUTS[source]
    f = tmp_path / "src.txt"
    f.write_text(text)
    return run(capsys, "verify", "--from", source, "--input", str(f), *args, *extra)


@pytest.mark.parametrize("source, target", SOURCE_TARGETS,
                         ids=[f"{s}-{t}" for s, t in SOURCE_TARGETS])
def test_verify_every_gadget_in_the_table(tmp_path, capsys, source, target):
    code, out, _ = _verify(tmp_path, capsys, source, "--to", target)
    assert code == 0
    assert out.startswith(target + " ") and out.strip().endswith("PASS")
    code, te_out, err = _verify(tmp_path, capsys, source, "--to", target + "-TE")
    if SPECS[target[2:]].has_tie:
        assert (code, te_out) == (0, out)
    else:
        assert code == 2 and te_out == ""
        assert f"{source} reduces to one of" in err


@pytest.mark.parametrize("source", SOURCES)
def test_reduction_rejects_targets_of_other_sources(tmp_path, capsys, source):
    targets = SOURCES[source][4]
    foreign = next(t for name, t in SOURCE_TARGETS if t not in targets)
    for bad in ("CCDC-TE", foreign):
        code, out, err = _verify(tmp_path, capsys, source, "--to", bad)
        assert code == 2 and out == ""
        assert f"error: {source} reduces to one of" in err
        assert all(t in err for t in targets)


@pytest.mark.parametrize("command", ["reduce", "verify"])
@pytest.mark.parametrize("source", [s for s in SOURCES if s != "vc"])
def test_only_vc_takes_a_cover_bound(tmp_path, capsys, command, source):
    text, _ = SOURCE_INPUTS[source]
    f = tmp_path / "src.txt"
    f.write_text(text)
    written = tmp_path / "o.txt"
    extra = (("--to", SOURCES[source][4][0], "--output", str(written))
             if command == "reduce" else ())
    code, out, err = run(capsys, command, "--from", source, "--input", str(f),
                         "--k", "99", *extra)
    assert code == 2 and out == ""
    assert "only vc takes a cover bound" in err
    assert not written.exists()


def test_verify_parity_error(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("vertices 2\nedge 1 2\n")
    code, _, err = run(capsys, "verify", "--from", "ohvc", "--input", str(src))
    assert code == 2


def test_anonymity_clean_and_violating(capsys):
    code, out, _ = run(capsys, "anonymity", "--system", "plurality",
                       "--trials", "200")
    assert code == 0
    assert "no violation" in out
    code, out, _ = run(capsys, "anonymity", "--system", "hybrid:e_first,e_last",
                       "--trials", "5000")
    assert code == 0
    assert "violation witness" in out


def test_suite_replay(capsys):
    code, out, _ = run(capsys, "suite", "replay")
    assert code == 0
    assert "PASS 4/4" in out


def test_suite_inheritance(capsys):
    code, out, _ = run(capsys, "--seed", "7", "suite", "inheritance",
                       "--trials", "20")
    assert code == 0
    assert "PASS inheritance 20/20" in out


def test_suite_agreement(capsys):
    code, out, _ = run(capsys, "suite", "agreement", "--trials", "5")
    assert code == 0
    assert out.strip() == "PASS agreement 105/105"  # every registered decider


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["decide"]) == 2
    assert main(["suite", "nonsense"]) == 2


def test_poly_decide_dispatch_covers_voter_control_on_hybrids(tmp_path, capsys):
    f = tmp_path / "i.txt"
    f.write_text("type CCDV\nsystem hybrid:plurality,condorcet\n"
                 "distinguished 0\nk 1\ncandidates 0 2\n"
                 "ballot 2 > 0\nballot 0 > 2\n")
    code, out, _ = run(capsys, "decide", "--instance", str(f), "--solver", "poly")
    assert code == 0
    assert out.startswith("YES")


# voter partition on a hybrid: the final run-off over the survivors {0,4}
# routes to e0_solo, where no subelection split can crown 0
HYBRID_CCPV = """\
type CCPV
system hybrid:e0_solo,e1_prefix
distinguished 0
tie TE
candidates 0 2 4 5 6
ballot 0 > 6 > 4 > 5 > 2
ballot 4 > 5 > 2 > 0 > 6
ballot 4 > 0 > 2 > 6 > 5
ballot 4 > 6 > 5 > 0 > 2
ballot 6 > 0 > 2 > 4 > 5
ballot 0 > 5 > 4 > 2 > 6
"""


def test_poly_decide_does_not_cover_voter_partition_on_hybrids(tmp_path, capsys):
    f = tmp_path / "i.txt"
    f.write_text(HYBRID_CCPV)
    code, out, _ = run(capsys, "decide", "--instance", str(f))
    assert code == 0
    assert out.strip() == "NO"
    code, out, err = run(capsys, "decide", "--instance", str(f), "--solver", "poly")
    assert code == 2
    assert out == ""
    assert "no polynomial decider covers this instance" in err


def test_reduce_to_unwritable_path_exits_2(tmp_path, capsys):
    src = tmp_path / "x3c.txt"
    src.write_text(X3C_YES)
    code, _, err = run(capsys, "reduce", "--from", "x3c", "--to", "DCDV",
                       "--input", str(src),
                       "--output", str(tmp_path / "missing" / "o.txt"))
    assert code == 2
    assert "cannot write" in err


def test_anonymity_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "anonymity", "--system", "plurality",
                         "--trials", "-3")
    assert code == 2
    assert "no violation" not in out
    assert "--trials" in err


@pytest.mark.parametrize("suite", ["inheritance", "agreement"])
def test_suite_rejects_negative_trials(capsys, suite):
    code, out, err = run(capsys, "suite", suite, "--trials", "-1")
    assert code == 2
    assert "PASS" not in out
    assert "--trials" in err


NEGATIVE_CCDC = """\
type CCDC
system plurality
distinguished -1
k 0
candidates -1 1
ballot -1 > 1
"""


@pytest.mark.parametrize("argv, text, message", [
    (("winners", "--system", "hybrid:e_first,e_last", "--election"),
     "candidates -1 1\nballot -1 > 1\n", "naturals"),
    (("decide", "--instance"), NEGATIVE_CCDC, "naturals"),
    (("verify", "--from", "x3c", "--input"), "base -3 -2 -1\nset -3 -2 -1\n", "naturals"),
    (("verify", "--from", "vc", "--k", "1", "--input"), "vertices -2 1\nedge -2 1\n",
     "naturals"),
    (("verify", "--from", "vc", "--k", "1", "--input"), "vertices 17\nedge 1 2\n",
     "more than 16 vertices"),
], ids=["winners-negative", "decide-negative", "x3c-negative", "graph-negative",
        "graph-too-many-vertices"])
def test_text_boundary_rejects_negative_ids_and_large_graphs(tmp_path, capsys,
                                                             argv, text, message):
    f = tmp_path / "in.txt"
    f.write_text(text)
    code, out, err = run(capsys, *argv, str(f))
    assert code == 2
    assert out == ""
    assert message in err


CCPC = """\
type CCPC
system plurality
distinguished 0
tie TE
candidates 0 1
ballot 0 > 1
"""


# each directive but a ballot line appears once, and only where the shape
# takes it; a candidate-set line names distinct ids
@pytest.mark.parametrize("text, message", [
    (CCPC + "k 7\n", "CCPC instances take no 'k' line"),
    (DCDC_NO + "tie XX\n", "DCDC instances take no 'tie' line"),
    (DCDC_NO + "spoilers 5\n", "DCDC instances take no 'spoilers' line"),
    (DCDC_NO + "unregistered-ballot 1 > 0\n",
     "DCDC instances take no 'unregistered-ballot' line"),
    ("type CCDC\n" + DCDC_NO, "line 2: repeated 'type' line"),
    (DCDC_NO + "system condorcet\n", "line 7: repeated 'system' line"),
    (DCDC_NO + "distinguished 1\n", "line 7: repeated 'distinguished' line"),
    (DCDC_NO + "k 0\n", "line 7: repeated 'k' line"),
    (CCPC + "tie TP\n", "line 7: repeated 'tie' line"),
    (DCDC_NO + "candidates 0 1\n", "line 7: repeated 'candidates' line"),
    (CCAC + "spoilers 1\n", "line 7: repeated 'spoilers' line"),
    (DCDC_NO.replace("candidates 0 1", "candidates 0 1 1"), "line 5: duplicate candidate ids"),
    (CCAC.replace("spoilers 1", "spoilers 1 1"), "line 5: duplicate candidate ids"),
], ids=["k-on-PC", "tie-on-DC", "spoilers-on-DC", "unregistered-on-DC", "repeated-type",
        "repeated-system", "repeated-distinguished", "repeated-k", "repeated-tie",
        "repeated-candidates", "repeated-spoilers", "duplicate-candidates",
        "duplicate-spoilers"])
def test_instance_text_rejects_stray_and_repeated_directives(tmp_path, capsys, text, message):
    f = tmp_path / "i.txt"
    f.write_text(text)
    code, out, err = run(capsys, "decide", "--instance", str(f))
    assert code == 2
    assert out == ""
    assert message in err


# bytes that are not UTF-8 are a user error, not a traceback and not a FAIL
@pytest.mark.parametrize("argv", [
    ("winners", "--system", "plurality", "--election"),
    ("decide", "--instance"),
    ("verify", "--from", "x3c", "--input"),
    ("reduce", "--from", "x3c", "--to", "DCDV", "--output", "out.txt", "--input"),
], ids=["winners", "decide", "verify", "reduce"])
def test_non_utf8_input_exits_2(tmp_path, capsys, argv):
    f = tmp_path / "in.txt"
    f.write_bytes(b"candidates 0\n\xff\n")
    argv = [str(tmp_path / a) if a == "out.txt" else a for a in argv]
    code, out, err = run(capsys, *argv, str(f))
    assert code == 2
    assert out == ""
    assert "cannot read" in err
    assert not (tmp_path / "out.txt").exists()
