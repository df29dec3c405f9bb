import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhskernel import (
    Hypergraph,
    InstanceError,
    generate_random,
    instance_size,
    parse_instance,
    serialize_instance,
    validate_feasibility,
)
from mhskernel import instance

from conftest import CE_TEXT, edges_of, from_edges, singletons


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
    h = from_edges(4, [[3, 1], [2, 4]], [1, 2])
    assert h.edges == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        from_edges(4, [[1, 1]], [1])


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


def test_constructor_stores_tuples_of_ints():
    listed = Hypergraph(3, [[1, 2], [2, 3]], [1, np.int64(2)])
    tupled = Hypergraph(3, ((1, 2), (2, 3)), (1, 2))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.demand == (1, 2) and all(type(f) is int for f in listed.demand)
    assert listed.edges == ((1, 2), (2, 3))
    assert Hypergraph(2, ((1, 2),), [1]) == Hypergraph(2, ((1, 2),), (1,))


@pytest.mark.parametrize(
    "edges,demand,message",
    [
        (((1, 2.5),), (1,), "edge 1: demand and vertex ids must be integers, got 1 and (1, 2.5)"),
        (((1,), (1, 2.0)), (1, 1), "edge 2: demand and vertex ids must be integers, got 1 and (1, 2.0)"),
        (((1, "2"),), (1,), "edge 1: demand and vertex ids must be integers, got 1 and (1, '2')"),
        (((1, 2),), (1.5,), "edge 1: demand and vertex ids must be integers, got 1.5 and (1, 2)"),
        (((1,), (2,)), (1, 1.0), "edge 2: demand and vertex ids must be integers, got 1.0 and (2,)"),
    ],
    ids=["float-vertex", "float-vertex-in-edge-2", "str-vertex", "float-demand", "float-demand-of-edge-2"],
)
def test_constructor_rejects_non_integers(edges, demand, message):
    with pytest.raises(ValueError) as err:
        Hypergraph(3, edges, demand)
    assert str(err.value) == message


def test_vertex_count_is_checked_before_the_edges():
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Hypergraph(-1, ((1,),), (1,))
    with pytest.raises(ValueError, match=f"at most {sys.maxsize}"):
        Hypergraph(sys.maxsize + 2, ((sys.maxsize + 1,),), (1,))


_FIELDS = {"n", "indptr", "words", "demand", "budget"}


def _state(h: Hypergraph) -> dict:
    return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in vars(h).items()}


@pytest.mark.parametrize("seed", range(10))
def test_both_constructors_store_only_the_arrays(seed, monkeypatch):
    builds = []
    post_init = Hypergraph.__post_init__
    monkeypatch.setattr(Hypergraph, "__post_init__", lambda h: builds.append(h.n) or post_init(h))
    h = generate_random(n=1 + seed, m=seed % 7, p=0.4, alpha=1 + seed % 3, seed=seed)
    arrays = _arrays_of(h, seed)
    assert set(vars(h)) == set(vars(arrays)) == _FIELDS
    tuples = Hypergraph(h.n, h.edges, h.demand, seed)
    assert set(vars(tuples)) == _FIELDS
    assert builds == [h.n] * 3
    assert _state(tuples) == _state(arrays)
    assert tuples.edge_bits == arrays.edge_bits
    # Derived views stay with the instance that derived them.
    assert set(vars(h)) == _FIELDS | {"edges"} and set(vars(tuples)) == _FIELDS | {"edge_bits"}
    assert set(vars(h.with_budget(None))) == set(vars(tuples.with_budget(seed + 1))) == _FIELDS
    assert builds == [h.n] * 3  # with_budget copies without building


def test_ce_text_matches_fixture(ce):
    assert parse_instance(CE_TEXT) == ce


def _plain_text(rng: random.Random) -> str:
    """A plain instance text (the kind serialize_instance writes), sometimes
    with a budget, leading zeros or an 18-digit demand."""
    n, m = rng.randint(0, 9), rng.choice([0, 1, 2, 3, 4, 5, 6])
    header = ["p", "mhs", str(n), str(m)] + ([str(rng.randint(0, 12))] if rng.random() < 0.3 else [])
    lines = [" ".join(header)]
    for _ in range(m):
        members = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        f = rng.choice([1, 1, 2, 3, 999999999999999999]) if members or rng.random() < 0.5 else 1
        lines.append(" ".join(["e", str(f), *map(str, members)]))
    if rng.random() < 0.1:
        lines = [" ".join("0" * rng.randint(1, 3) + t if t.isdigit() else t for t in line.split()) for line in lines]
    return "\n".join(lines) + "\n"


def _retoken(rng: random.Random, text: str, new) -> str:
    """``text`` with one number token, chosen at random, replaced by ``new(token)``."""
    lines = text.split("\n")
    spots = [(i, k) for i, line in enumerate(lines) for k, t in enumerate(line.split(" ")) if t.isdigit()]
    if not spots:
        return text
    i, k = rng.choice(spots)
    tokens = lines[i].split(" ")
    tokens[k] = new(tokens[k])
    lines[i] = " ".join(tokens)
    return "\n".join(lines)


def _edit_line(rng: random.Random, text: str, edit) -> str:
    """``text`` with one edge line, chosen at random, replaced by ``edit(tokens)``."""
    lines = text.split("\n")
    spots = [i for i, line in enumerate(lines) if line.startswith("e ")]
    if not spots:
        return text
    i = rng.choice(spots)
    lines[i] = " ".join(edit(lines[i].split(" ")))
    return "\n".join(lines)


def _add_empty_edge(text: str) -> str:
    """``text`` with an edge of demand 1 and no vertices after the header,
    whose edge count goes up by one when it reads as a number."""
    head, _, body = text.partition("\n")
    tokens = head.split(" ")
    if len(tokens) > 3 and tokens[3].isdigit():
        tokens[3] = str(int(tokens[3]) + 1)
    return " ".join(tokens) + "\ne 1\n" + body


def _swap_two(tokens):
    if len(tokens) > 3:
        tokens[2], tokens[3] = tokens[3], tokens[2]
    return tokens


_PERTURBATIONS = [
    lambda rng, t: _retoken(rng, t, lambda tok: "0" * (19 - len(tok)) + tok),  # overlong, same value
    lambda rng, t: _retoken(rng, t, lambda tok: rng.choice(["99999999999999999999", str(2**63), str(10**18)])),
    lambda rng, t: _retoken(rng, t, lambda tok: "+" + tok),
    lambda rng, t: _retoken(rng, t, lambda tok: "-0"),
    lambda rng, t: _retoken(rng, t, lambda tok: "1.5"),
    lambda rng, t: _retoken(rng, t, lambda tok: "0"),  # demand 0, vertex 0, n 0 or m 0
    lambda rng, t: _retoken(rng, t, lambda tok: str(int(tok) + 1)),  # a vertex above n, or a wrong count
    lambda rng, t: t.replace(" ", "\t", 1) if rng.random() < 0.5 else t.replace(" ", "  ", 1),
    lambda rng, t: t.replace("\n", "\r\n"),
    lambda rng, t: t.replace("\n", "\n# a comment\n", 1) if rng.random() < 0.5 else "# first\n" + t,
    lambda rng, t: t.replace("\n", "\n\n", 1),
    lambda rng, t: t.replace("\n", " \n", 1),  # a trailing space
    lambda rng, t: t.rstrip("\n"),  # no final newline
    lambda rng, t: _add_empty_edge(t),
    lambda rng, t: _edit_line(rng, t, _swap_two),  # unsorted vertices
    lambda rng, t: _edit_line(rng, t, lambda tokens: tokens + tokens[2:3]),  # a duplicate vertex
    lambda rng, t: _edit_line(rng, t, lambda tokens: tokens[:1]),  # "e" with no demand
]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except InstanceError as exc:
        return str(exc), exc.line_no


def test_plain_parse_matches_the_line_parser():
    # Each text gives the line parser's instance on the plain path, or is
    # refused there and then gets the same instance or message in the end.
    rng = random.Random(30)
    plain = refused = errors = 0
    for _ in range(640):
        text = _plain_text(rng)
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            text = rng.choice(_PERTURBATIONS)(rng, text)
        expected = _parse_outcome(instance._parse_lines, text)
        fast = instance._parse_plain(text)
        if fast is None:
            refused += 1
            errors += not isinstance(expected, Hypergraph)
        else:
            plain += 1
            assert isinstance(expected, Hypergraph), repr(text)
            assert fast == expected and expected == fast, repr(text)
            assert (fast.edges, fast.edge_bits) == (expected.edges, expected.edge_bits), repr(text)
            assert serialize_instance(fast) == serialize_instance(expected)
        assert _parse_outcome(parse_instance, text) == expected, repr(text)
    # Both paths ran, and the line parser worded errors as well as read text.
    assert plain > 200 and refused > 200 and 50 < errors < refused


def test_plain_parse_never_enters_the_line_parser_on_canonical_text(monkeypatch):
    def refuse(text):
        raise AssertionError("line parser entered")

    texts = [serialize_instance(generate_random(n=30, m=20 + seed, p=0.1, alpha=2, seed=seed)) for seed in range(5)]
    monkeypatch.setattr(instance, "_parse_lines", refuse)
    for text in texts:
        assert parse_instance(text).m > 0


def _arrays_of(h: Hypergraph, budget=None) -> Hypergraph:
    return Hypergraph._from_arrays(h.n, np.array(h.indptr), np.array(h.words), h.demand, budget)


@pytest.mark.parametrize("seed", range(20))
def test_array_and_tuple_builds_agree(seed):
    h = generate_random(n=1 + seed % 9, m=seed % 7, p=0.4, alpha=1 + seed % 3, seed=seed)
    for budget in (None, seed):
        tuples = Hypergraph(h.n, h.edges, h.demand, budget)
        arrays = _arrays_of(h, budget)
        assert "edges" not in vars(arrays)
        assert arrays == tuples and tuples == arrays and hash(arrays) == hash(tuples)
        assert serialize_instance(arrays) == serialize_instance(tuples)
        assert instance_size(arrays) == instance_size(tuples)
        assert validate_feasibility(arrays) == validate_feasibility(tuples)
        assert arrays.edge_bits == tuples.edge_bits and arrays.alpha == tuples.alpha
        assert "edges" not in vars(arrays)  # none of the above derived the tuples
        assert arrays.edges == tuples.edges
    if h.m and h.n > 1:
        moved = tuple(e if i else tuple(sorted({*e[1:], 1 + e[0] % h.n})) for i, e in enumerate(h.edges))
        other = Hypergraph(h.n, moved, h.demand)
        assert (other != _arrays_of(h)) == (other != h) == (moved != h.edges)
        assert _arrays_of(h).with_budget(3) != _arrays_of(h)


def test_array_build_is_frozen():
    h = _arrays_of(Hypergraph(3, ((1, 2),), (1,)))
    with pytest.raises(AttributeError):
        h.n = 4
    with pytest.raises(ValueError):
        h.words[0] = 2


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("budget", [None, 0, 17])
def test_canonical_text_round_trips(seed, budget):
    h = generate_random(n=2 + seed, m=seed, p=0.3, alpha=1 + seed % 3, seed=seed).with_budget(budget)
    text = serialize_instance(h)
    assert serialize_instance(parse_instance(text)) == text
    assert instance._parse_plain(text) == h
