import pytest

from mhskernel import Hypergraph, edges_of, generate_random, incidence_matrix, instance_size

from conftest import singletons


def test_ce_matrix(ce):
    A = incidence_matrix(ce)
    assert (A.rows, A.cols) == (3, 5)
    assert [A.row_popcount(i) for i in (1, 2, 3)] == [2, 3, 3]
    assert A.bit(1, 1) and A.bit(1, 2) and not A.bit(1, 3)
    assert A.bit(2, 4) and not A.bit(2, 5)


def test_identity_pattern_for_singletons():
    A = incidence_matrix(singletons(3))
    for i in range(1, 4):
        for j in range(1, 4):
            assert A.bit(i, j) == (i == j)


def test_empty_matrix():
    A = incidence_matrix(Hypergraph(0, (), ()))
    assert (A.rows, A.cols) == (0, 0)
    assert A.total_bits() == 0


def test_bit_index_errors(ce):
    A = incidence_matrix(ce)
    with pytest.raises(IndexError):
        A.bit(0, 1)
    with pytest.raises(IndexError):
        A.bit(1, 6)


def test_packing_beyond_word_width():
    A = incidence_matrix(singletons(70))
    assert A.bit(70, 70) and not A.bit(70, 1)
    assert all(A.col_popcount(j) == 1 for j in range(1, 71))
    B = incidence_matrix(Hypergraph(3, ((1,), (2,), (1, 2), (3,), (2, 3)), (1,) * 5))
    assert [B.bit(i, 2) for i in range(1, 6)] == [False, True, True, False, True]
    assert B.col_popcount(2) == 3


@pytest.mark.parametrize("seed", range(20))
def test_popcount_invariants_random(seed):
    h = generate_random(n=1 + seed % 80, m=1 + (seed * 7) % 90, p=0.3, alpha=2, seed=seed)
    A = incidence_matrix(h)
    for i in range(1, h.m + 1):
        assert A.row_popcount(i) == len(h.edges[i - 1])
    for j in range(1, h.n + 1):
        assert A.col_popcount(j) == len(edges_of(h, j))
    assert instance_size(h) == h.n + A.total_bits()
    for i in range(1, h.m + 1):
        for j in range(1, h.n + 1):
            assert A.bit(i, j) == (j in h.edges[i - 1])
            assert A.bit(i, j) == (i in edges_of(h, j))
