import logging

import pytest

from mhskernel import generate_random, ingest_response_matrix, serialize_instance


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

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "-Infinity"])
    def test_non_finite_cell_rejected(self, cell):
        # A NaN row mean would otherwise drop the row as "empty" with no error.
        with pytest.raises(ValueError, match="row 2, column 2"):
            ingest_response_matrix(f"1,2,3,4,50\n1,{cell},3,4,50\n")
