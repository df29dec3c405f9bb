import numpy as np
import pytest

from mhskernel import Hypergraph, bitmatrix, generate_random, incidence_matrix, instance_size

from conftest import edges_of, singletons, vertex_edges


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


def _counts(chunks) -> dict:
    return {(a, b): c for chunk in chunks for a, b, c in zip(*(part.tolist() for part in chunk))}


@pytest.mark.parametrize("block", [bitmatrix.BLOCK_CELLS, 64])
@pytest.mark.parametrize("path", ["_sparse_counts", "_dense_counts"])
@pytest.mark.parametrize("seed, n, p", [(1, 40, 0.2), (2, 90, 0.05), (3, 60, 0.5)])
def test_row_counts_are_the_full_counts_filtered(monkeypatch, block, path, seed, n, p):
    A = incidence_matrix(generate_random(n=n, m=n + 7, p=p, alpha=2, seed=seed))
    # Force one path: the other one delegates to it.  A small block makes
    # the rows span several chunks.
    other = "_dense_counts" if path == "_sparse_counts" else "_sparse_counts"
    monkeypatch.setattr(bitmatrix, other, getattr(bitmatrix, path))
    monkeypatch.setattr(bitmatrix, "BLOCK_CELLS", block)
    rng = np.random.default_rng(seed)
    for pairs, items in ((A.edge_pairs, A.rows), (A.vertex_pairs, A.cols)):
        full = _counts(pairs())
        for rows in (np.array([], dtype=np.intp), np.sort(rng.choice(items, items // 3, replace=False)),
                     np.arange(items)):
            chunks, left = list(pairs(rows)), set(rows.tolist())
            counts = _counts(chunks)
            assert counts == {(a, b): c for (a, b), c in full.items() if a in left}
            assert sum(len(chunk[0]) for chunk in chunks) == len(counts)  # each pair in one chunk
            if block == 64 and rows.size:
                assert len(chunks) > 1


def test_dense_input_counts_candidate_rows_on_the_product_path(monkeypatch):
    A = incidence_matrix(generate_random(n=300, m=300, p=0.5, alpha=2, seed=1))
    rows = np.arange(3, 300, 7)
    left = set(rows.tolist())
    full = [_counts(A.edge_pairs()), _counts(A.vertex_pairs())]

    def no_pair_lists(*args):
        raise AssertionError("dense candidate rows counted on the pair-list path")

    monkeypatch.setattr(bitmatrix, "_sparse_counts", no_pair_lists)
    for pairs, counts in zip((A.edge_pairs, A.vertex_pairs), full):
        assert _counts(pairs(rows)) == {(a, b): c for (a, b), c in counts.items() if a in left}


@pytest.mark.parametrize("block", [bitmatrix.BLOCK_CELLS, 1])
def test_dense_counts_across_word_boundaries(monkeypatch, block):
    # Vertices 64, 65, 128 and 129 (1-based) sit on either side of the
    # 64-bit word boundaries of an edge's bit row; a one-cell block packs
    # every word separately.
    h = Hypergraph(130, ((1, 64, 65, 128, 129, 130), (64, 65), (63, 64, 65, 66), (1, 128, 130), (129, 130)),
                   (1, 1, 1, 1, 1))
    monkeypatch.setattr(bitmatrix, "BLOCK_CELLS", block)
    A = incidence_matrix(h)
    edges, vertices = [set(e) for e in h.edges], [set(v) for v in vertex_edges(h)]
    for args, sets in (((A.indptr, A.words, *A.columns), edges), ((*A.columns, A.indptr, A.words), vertices)):
        expected = {(a, b): len(sets[a] & sets[b]) for a in range(len(sets)) for b in range(len(sets))}
        assert _counts(bitmatrix._dense_counts(*args)) == {k: c for k, c in expected.items() if c}
