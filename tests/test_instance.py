import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhskernel import (
    Hypergraph,
    InstanceError,
    edges_of,
    generate_random,
    instance_size,
    parse_instance,
    serialize_instance,
    validate_feasibility,
)

from conftest import CE_TEXT, singletons


def test_parse_minimal():
    h = parse_instance("p mhs 2 1\ne 1 1 2")
    assert (h.n, h.m) == (2, 1)
    assert h.edges == ((1, 2),)
    assert h.demand == (1,)
    assert h.alpha == 1
    assert h.budget is None


def test_parse_ce(ce):
    assert ce.n == 5 and ce.m == 3
    assert ce.edges == ((1, 2), (2, 3, 4), (2, 3, 5))
    assert ce.demand == (2, 2, 2)
    assert ce.alpha == 2


def test_parse_budget_and_comments():
    h = parse_instance("# comment\np mhs 3 1 7\n\ne 2 3 1\n# trailing\n")
    assert h.budget == 7
    assert h.edges == ((1, 3),)  # sorted on input


def _case(text, line, message):
    # Ids name the text and line only, as they did before messages were pinned.
    return pytest.param(text, line, message, id=f"{text}-{line}")


@pytest.mark.parametrize(
    "text,line,message",
    [
        _case("p mhs 2 1\ne 0 1", 2, "demand must be positive, got 0"),
        _case("p mhs 2 1\ne -3 1", 2, "demand must be positive, got -3"),
        _case("p mhs 2 1\ne 1 3", 2, "vertex 3 out of range 1..2"),
        _case("p mhs 2 1\ne 1 1 1", 2, "duplicate vertex 1 in edge"),
        _case("p cnf 2 1\ne 1 1", 1, "expected header 'p mhs <n> <m> [k]'"),  # wrong problem tag
        _case("p mhs 2\ne 1 1", 1, "expected header 'p mhs <n> <m> [k]'"),  # missing edge count
        _case("p mhs 2 1 -1\ne 1 1", 1, "budget must be non-negative"),
        _case("p mhs 2 x\ne 1 1", 1, "non-integer field in header"),
        _case("p mhs 2 1\nz 1 1", 2, "expected edge line 'e <demand> <v1> ...', got 'z'"),
        _case("p mhs 2 1\ne 1 q", 2, "non-integer field in edge line"),
        _case("p mhs 18446744073709551616 0", 1, f"vertex count must be at most {sys.maxsize}"),
        # The first bad vertex in input order is named, whatever the sorted order.
        _case("p mhs 3 1\ne 1 2 2 9", 2, "duplicate vertex 2 in edge"),
        _case("p mhs 3 1\ne 1 9 2 2", 2, "vertex 9 out of range 1..3"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(InstanceError) as err:
        parse_instance(text)
    assert err.value.line_no == line
    assert str(err.value) == f"line {line}: {message}"


def test_parse_sorts_an_unsorted_edge_line():
    assert parse_instance("p mhs 3 1\ne 1 3 1 2").edges == ((1, 2, 3),)


def test_parse_accepts_the_largest_index_as_vertex_count():
    assert parse_instance(f"p mhs {sys.maxsize} 0").n == sys.maxsize


def test_parse_edge_count_mismatch():
    with pytest.raises(InstanceError):
        parse_instance("p mhs 2 2\ne 1 1")
    with pytest.raises(InstanceError):
        parse_instance("e 1 1")  # no header at all


def test_roundtrip_ce(ce):
    assert parse_instance(serialize_instance(ce)) == ce


def test_roundtrip_empty():
    h = Hypergraph(0, (), ())
    assert serialize_instance(h) == "p mhs 0 0\n"
    assert parse_instance(serialize_instance(h)) == h


def test_roundtrip_budget_echo():
    h = Hypergraph(3, ((1, 2),), (1,), budget=7)
    assert serialize_instance(h).splitlines()[0] == "p mhs 3 1 7"
    assert parse_instance(serialize_instance(h)) == h


@pytest.mark.parametrize("seed", range(25))
def test_roundtrip_random(seed):
    h = generate_random(n=1 + seed % 9, m=seed % 7, p=0.4, alpha=1 + seed % 3, seed=seed)
    assert parse_instance(serialize_instance(h)) == h


_INT = st.integers(-1, 6)
_EDGE_LINE = st.builds(
    lambda f, members: " ".join(map(str, ["e", f, *members])), _INT, st.lists(_INT, max_size=4, unique=True)
)
_NOISE_LINE = st.sampled_from(["", "# comment", "p", "e", "x 1", "e 1.5 2", "p mhs 1 1", "e +1 1", "1 2 3"])


@st.composite
def instance_texts(draw):
    """A header and edge lines built from the format's own tokens, the edge
    count declared right about half the time, with at most one stray line;
    or arbitrary text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=80))
    edges = draw(st.lists(_EDGE_LINE, max_size=5))
    m = draw(st.just(len(edges)) | _INT)
    lines = [" ".join(map(str, ["p", "mhs", draw(_INT), m, *draw(st.lists(_INT, max_size=1))])), *edges]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE_LINE))
    return "\n".join(lines)


@settings(max_examples=400, deadline=1000, derandomize=True, database=None)
@given(instance_texts())
def test_parse_fuzz_rejects_or_round_trips(text):
    try:
        h = parse_instance(text)
    except InstanceError:
        return
    assert parse_instance(serialize_instance(h)) == h


def test_instance_size(ce):
    assert instance_size(ce) == 5 + (2 + 3 + 3)
    assert instance_size(singletons(4)) == 8
    assert instance_size(Hypergraph(0, (), ())) == 0


def test_edges_of(ce):
    assert edges_of(ce, 2) == {1, 2, 3}
    assert edges_of(ce, 3) == {2, 3}
    assert edges_of(Hypergraph(2, ((1,),), (1,)), 2) == frozenset()
    with pytest.raises(IndexError):
        edges_of(ce, 6)


def test_validate_feasibility(ce):
    assert validate_feasibility(ce).feasible
    bad = Hypergraph(1, ((1,),), (2,))
    check = validate_feasibility(bad)
    assert not check.feasible and check.edge == 1
    over_budget = Hypergraph(2, ((1, 2),), (1,), budget=-1)
    assert not validate_feasibility(over_budget).feasible


def test_from_edges_normalizes_and_rejects_duplicates():
    h = Hypergraph.from_edges(4, [[3, 1], [2, 4]], [1, 2])
    assert h.edges == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        Hypergraph.from_edges(4, [[1, 1]], [1])


def test_constructor_rejects_bad_instances():
    with pytest.raises(ValueError):
        Hypergraph(2, ((1, 2),), (0,))  # demand below one
    with pytest.raises(ValueError):
        Hypergraph(2, ((2, 1),), (1,))  # unsorted edge
    with pytest.raises(ValueError):
        Hypergraph(2, ((1, 3),), (1,))  # vertex out of range
    with pytest.raises(ValueError):
        Hypergraph(2, ((1,),), (1, 1))  # demand arity mismatch
    with pytest.raises(ValueError, match=f"at most {sys.maxsize}"):
        Hypergraph(sys.maxsize + 1, (), ())  # vertex count beyond any index
    assert Hypergraph(sys.maxsize, (), ()).n == sys.maxsize


def test_ce_text_matches_fixture(ce):
    assert parse_instance(CE_TEXT) == ce
