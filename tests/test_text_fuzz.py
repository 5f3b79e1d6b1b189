"""Property tests of the text boundary: the source formats round-trip, and
garbage fed to the command line exits with a code, never a traceback."""

import contextlib
import io
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from votectrl.cli import main
from votectrl.control import (
    CONSTRUCTIVE, DESTRUCTIVE, SHAPES, TE, TP, format_instance, parse_instance,
)
from votectrl.harness import random_instance
from votectrl.reductions import (
    GraphInstance, X3CInstance, format_graph, format_x3c, parse_graph, parse_x3c,
)
from votectrl.systems import hybrid

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def x3c_instances(draw):
    base = draw(st.lists(st.integers(0, 30), unique=True, max_size=9))
    base = base[:len(base) - len(base) % 3]
    if not base:
        return X3CInstance([], [])
    triples = st.lists(st.sampled_from(base), min_size=3, max_size=3, unique=True)
    return X3CInstance(base, draw(st.lists(triples, max_size=6)))


@st.composite
def graphs(draw):
    vertices = draw(st.lists(st.integers(0, 40), unique=True, max_size=8))
    if len(vertices) < 2:
        return GraphInstance(vertices, [])
    edge = st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True)
    return GraphInstance(vertices, draw(st.lists(edge, max_size=10)))


@FUZZ
@given(x3c_instances())
def test_x3c_text_roundtrip(x3c):
    assert parse_x3c(format_x3c(x3c)) == x3c


@FUZZ
@given(graphs())
def test_graph_text_roundtrip(g):
    assert parse_graph(format_graph(g)) == g


@FUZZ
@given(st.integers(0, 2 ** 32), st.sampled_from(SHAPES), st.sampled_from((TE, TP)))
def test_instance_text_roundtrip(seed, shape, tie):
    rng = random.Random(seed)
    goal = rng.choice((CONSTRUCTIVE, DESTRUCTIVE))
    inst = random_instance(rng, shape, goal, hybrid("plurality", "e1_prefix"), tie)
    assert parse_instance(format_instance(inst)) == inst


# tokens of every text format, plus noise, so some lines come close to parsing
TOKENS = st.sampled_from([
    "base", "set", "vertices", "edge", "type", "system", "distinguished", "k",
    "tie", "candidates", "spoilers", "ballot", "unregistered-ballot", "TE", "TP",
    "CCDC", "DCPV", "plurality", "hybrid:e_first,e_last", "0", "1", "2", "3",
    "-1", "17", "1e3", "99999999999999999999", ">", "#", "\n", ",", ";",
])
GARBAGE = st.one_of(st.text(max_size=60),
                    st.lists(st.one_of(TOKENS, st.text(max_size=3)), max_size=40)
                    .map(" ".join))


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@FUZZ
@given(GARBAGE)
def test_decide_survives_garbage(tmp_path, text):
    f = tmp_path / "in.txt"
    f.write_text(text, encoding="utf-8")
    assert _exit_code(["decide", "--instance", str(f)]) in (0, 1, 2)


@FUZZ
@given(st.sampled_from(["x3c", "vc", "ehvc"]), GARBAGE)
def test_verify_survives_garbage(tmp_path, source, text):
    f = tmp_path / "in.txt"
    f.write_text(text, encoding="utf-8")
    k = ("--k", "1") if source == "vc" else ()   # only vc takes a cover bound
    assert _exit_code(["verify", "--from", source, *k,
                       "--input", str(f)]) in (0, 1, 2)
