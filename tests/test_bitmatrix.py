import numpy as np
import pytest

from mhskernel import Hypergraph, edges_of, generate_random, incidence_matrix, instance_size

from conftest import singletons


def members(A, i: int) -> list[int]:
    """1-based vertices of row ``i`` (1-based), read off ``indptr`` and ``words``."""
    return (A.words[A.indptr[i - 1] : A.indptr[i]] + 1).tolist()


def incident(A, j: int) -> list[int]:
    """1-based rows containing column ``j`` (1-based), read off ``columns``."""
    colptr, rows = A.columns
    return (rows[colptr[j - 1] : colptr[j]] + 1).tolist()


def test_ce_matrix(ce):
    A = incidence_matrix(ce)
    assert (A.rows, A.cols) == (3, 5)
    assert A.row_sizes.tolist() == [2, 3, 3]
    assert [members(A, i) for i in (1, 2, 3)] == [[1, 2], [2, 3, 4], [2, 3, 5]]


def test_identity_pattern_for_singletons():
    A = incidence_matrix(singletons(3))
    assert A.indptr.tolist() == [0, 1, 2, 3]
    assert A.words.tolist() == [0, 1, 2]


def test_empty_matrix():
    A = incidence_matrix(Hypergraph(0, (), ()))
    assert (A.rows, A.cols) == (0, 0)
    assert A.words.size == 0


def test_packing_beyond_word_width():
    A = incidence_matrix(singletons(70))
    assert members(A, 70) == [70]
    assert A.col_sizes.tolist() == [1] * 70
    B = incidence_matrix(Hypergraph(3, ((1,), (2,), (1, 2), (3,), (2, 3)), (1,) * 5))
    assert incident(B, 2) == [2, 3, 5]
    assert B.col_sizes[1] == 3


@pytest.mark.parametrize("seed", range(20))
def test_popcount_invariants_random(seed):
    h = generate_random(n=1 + seed % 80, m=1 + (seed * 7) % 90, p=0.3, alpha=2, seed=seed)
    A = incidence_matrix(h)
    assert A.row_sizes.tolist() == [len(e) for e in h.edges]
    assert A.col_sizes.tolist() == [len(edges_of(h, j)) for j in range(1, h.n + 1)]
    assert instance_size(h) == h.n + A.words.size
    assert [members(A, i) for i in range(1, h.m + 1)] == [list(e) for e in h.edges]
    assert [incident(A, j) for j in range(1, h.n + 1)] == [sorted(edges_of(h, j)) for j in range(1, h.n + 1)]


def test_restrict_ce(ce):
    # Rows 1 and 3, columns 2, 3 and 5 of the ce matrix.
    R = incidence_matrix(ce).restrict([True, False, True], [False, True, True, False, True])
    assert (R.rows, R.cols) == (2, 3)
    assert [members(R, i) for i in (1, 2)] == [[1], [1, 2, 3]]
    assert R.col_sizes.tolist() == [2, 1, 1]


def test_restrict_rejects_row_mask_of_wrong_length(ce):
    A = incidence_matrix(ce)
    with pytest.raises(ValueError):
        A.restrict(np.ones(A.rows + 1, dtype=bool), np.ones(A.cols, dtype=bool))


def test_restrict_rejects_col_mask_of_wrong_length(ce):
    A = incidence_matrix(ce)
    with pytest.raises(ValueError):
        A.restrict(np.ones(A.rows, dtype=bool), np.ones(A.cols + 1, dtype=bool))
