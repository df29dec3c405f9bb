import logging
import random

import pytest

from mhskernel import generate, generate_random, ingest_response_matrix, serialize_instance

from conftest import ingest_reference, response_matrix_csv


class TestGenerateRandom:
    def test_full_inclusion(self):
        h = generate_random(n=5, m=3, p=1.0, alpha=2, seed=9)
        assert all(e == (1, 2, 3, 4, 5) for e in h.edges)
        assert h.demand == (2, 2, 2)

    def test_determinism(self):
        a = generate_random(n=10, m=5, p=0.3, alpha=3, seed=42)
        b = generate_random(n=10, m=5, p=0.3, alpha=3, seed=42)
        assert a == b
        assert serialize_instance(a) == serialize_instance(b)
        assert a != generate_random(n=10, m=5, p=0.3, alpha=3, seed=43)

    def test_tiny_probability_pads_edges(self):
        h = generate_random(n=4, m=2, p=1e-9, alpha=2, seed=0)
        assert all(len(e) == 1 for e in h.edges)
        assert h.demand == (1, 1)

    def test_demand_clamps_to_edge_size(self):
        h = generate_random(n=6, m=8, p=0.4, alpha=4, seed=11)
        assert all(f == min(4, len(e)) for e, f in zip(h.edges, h.demand))

    @pytest.mark.parametrize("kwargs", [
        dict(n=5, m=2, p=0.0, alpha=1, seed=0),
        dict(n=5, m=2, p=1.5, alpha=1, seed=0),
        dict(n=5, m=2, p=0.5, alpha=0, seed=0),
        dict(n=-1, m=2, p=0.5, alpha=1, seed=0),
        dict(n=0, m=2, p=0.5, alpha=1, seed=0),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            generate_random(**kwargs)


class TestIngest:
    def test_single_strong_responder(self):
        # mean 10, population deviation 30: only the 100 clears 10 + 2*30
        row = ",".join(["0"] * 9 + ["100"])
        h = ingest_response_matrix(row, sigmas=2.0, alpha=2)
        assert h.n == 10
        assert h.edges == ((10,),)
        assert h.demand == (1,)  # clamped to the edge size

    def test_constant_row_dropped(self, caplog):
        with caplog.at_level(logging.WARNING):
            h = ingest_response_matrix("5,5,5,5\n0,0,0,9\n", sigmas=1.5)
        assert h.m == 1  # the constant row thresholds to nothing
        assert h.edges == ((4,),)
        assert any("empty edge" in msg for msg in caplog.messages)

    def test_alpha_one_means_unit_demands(self):
        text = "0,0,9\n9,0,0\n"
        h = ingest_response_matrix(text, sigmas=1.0, alpha=1)
        assert h.demand == (1, 1)

    def test_direction_below(self):
        text = "10,10,10,-50\n"
        above = ingest_response_matrix(text, sigmas=1.0, alpha=1, direction="above")
        below = ingest_response_matrix(text, sigmas=1.0, alpha=1, direction="below")
        assert above.m == 0  # nothing deviates upward
        assert below.edges == ((4,),)

    def test_strictness_of_threshold(self):
        # all values tie with the mean + 0 deviations boundary
        h = ingest_response_matrix("3,3,3\n", sigmas=0.0)
        assert h.m == 0

    def test_deterministic_bytes(self):
        text = "1,2,3\n4,5,60\n"
        a = ingest_response_matrix(text, sigmas=1.0, alpha=2)
        b = ingest_response_matrix(text, sigmas=1.0, alpha=2)
        assert serialize_instance(a) == serialize_instance(b)

    def test_errors(self):
        with pytest.raises(ValueError):
            ingest_response_matrix("1,2\n3,oops\n")
        with pytest.raises(ValueError):
            ingest_response_matrix("1,2\n3\n")
        with pytest.raises(ValueError):
            ingest_response_matrix("1,2\n", direction="sideways")
        with pytest.raises(ValueError):
            ingest_response_matrix("1,2\n", alpha=0)

    @pytest.mark.parametrize("sigmas", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sigmas_rejected(self, sigmas):
        # NaN or +inf would drop every row, -inf would put every column in every edge.
        with pytest.raises(ValueError, match=f"sigmas must be finite, got {sigmas}"):
            ingest_response_matrix("1,2,3,4,50\n", sigmas=sigmas)

    @pytest.mark.parametrize("row", ["1e200,0,1", "1e308,1e308,0", "1.2e154,-1.2e154,0"])
    def test_overflowing_spread_rejected(self, row):
        # Finite cells whose squared deviation, sum or sum of squares leaves
        # the float range.
        with pytest.raises(ValueError, match="row 2: the spread of its cells overflows a float"):
            ingest_response_matrix(f"1,2,3\n{row}\n")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "-Infinity"])
    def test_non_finite_cell_rejected(self, cell):
        # A NaN row mean would otherwise drop the row as "empty" with no error.
        with pytest.raises(ValueError, match="row 2, column 2"):
            ingest_response_matrix(f"1,2,3,4,50\n1,{cell},3,4,50\n")

    @pytest.mark.parametrize("text,message", [
        ("1,2,9\n\n1e308,1e308,0\n", "row 3: the spread of its cells overflows a float"),
        ("1,2,9\n\n1,x,0\n", "row 3: non-numeric cell"),
        ("1,2,9\r\n  \r\n,,\r\n1,nan,0\r\n", "row 4, column 2: non-finite cell nan"),
    ])
    def test_errors_name_the_csv_row(self, text, message):
        # Blank, whitespace-only and comma-only rows count towards the row numbers.
        with pytest.raises(ValueError, match=message):
            ingest_response_matrix(text, sigmas=1.0)

    @pytest.mark.parametrize("text,row", [("1,2\r3,4", 1), ("1,2,9\n\n5,5\r5,5", 3)])
    def test_unreadable_csv_row_is_a_value_error(self, text, row):
        # A lone carriage return inside the last row: loadtxt refuses the
        # text and csv.reader raises its own error, which must not escape.
        with pytest.raises(ValueError, match=f"row {row}: unreadable CSV"):
            ingest_response_matrix(text)

    def test_empty_edge_warning_names_the_csv_row(self, caplog):
        with caplog.at_level(logging.WARNING):
            h = ingest_response_matrix("1,2,9\n\n5,5,5\n", sigmas=1.0)
        assert h.edges == ((3,),)
        assert caplog.messages == ["row 3 thresholds to an empty edge; dropping it"]

    def test_row_sums_run_left_to_right(self):
        # Left to right the 1 is absorbed into 1e16 and the mean is 0.025; a
        # compensated sum (Python 3.12's sum()) gives 0.275 and drops column 4.
        h = ingest_response_matrix("1e16,1,-1e16,0.1\n", sigmas=0.0)
        assert h.edges == ((1, 2, 4),)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("direction", ["above", "below"])
    @pytest.mark.parametrize("sigmas", [0.0, 1.0, 2.0])
    def test_matches_the_cell_by_cell_reference(self, seed, direction, sigmas):
        text = response_matrix_csv(seed, rows=40 + seed, cols=12 + seed, modules=3)
        h = ingest_response_matrix(text, sigmas=sigmas, alpha=2, direction=direction)
        assert h == ingest_reference(text, sigmas, 2, direction)


def _fuzz_cell(rng: random.Random) -> str:
    x = rng.choice([rng.gauss(0.0, 1.0), rng.gauss(0.0, 1e6), float(rng.randint(-9, 9)), -0.0, 1e308, 1e-320])
    return rng.choices([
        repr(x), f"{x:.3f}", f"{x:g}", f" {x} ", f"\t{x:.2e} ", f'"{x}"', "1_0", "\u0661\u0662",
        "nan", "inf", "-Infinity", "1e400", "", "x",
    ], weights=[30, 30, 10, 6, 4, 2, 1, 1, 1, 1, 1, 1, 1, 1])[0]


def _fuzz_csv(rng: random.Random) -> str:
    cols = rng.randint(1, 6)
    lines = []
    for _ in range(rng.randint(0, 8)):
        cells = [_fuzz_cell(rng) for _ in range(cols)]
        if rng.random() < 0.03:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]  # ragged
        lines.append(",".join(cells))
        if rng.random() < 0.08:
            lines.append(rng.choice(["", "   ", ",,", " , ", "\t"]))
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])


def _outcome(parse, text):
    try:
        cells = parse(text)
    except ValueError as exc:
        return str(exc)
    return cells.shape, cells.tobytes()


def test_fast_csv_parse_matches_the_reference(monkeypatch):
    reference = generate._read_matrix
    fallbacks = []

    def counted(text):
        fallbacks.append(text)
        return reference(text)

    monkeypatch.setattr(generate, "_read_matrix", counted)
    rng = random.Random(2024)
    texts = [_fuzz_csv(rng) for _ in range(600)]
    for text in texts:
        assert _outcome(generate._parse_matrix, text) == _outcome(reference, text), repr(text)
    # Both paths ran: loadtxt read some texts alone, the reference the rest.
    assert 100 < len(fallbacks) < len(texts) - 100
