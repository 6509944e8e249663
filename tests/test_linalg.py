import random
from fractions import Fraction
from math import gcd

from apolarity.linalg import (RowSpan, _to_sparse_int, inverse, kernel_basis,
                              mat_vec, rank, rref, solve)
from oracles import bareiss_rank


def _random_matrix(rng, nrows, ncols, span=4):
    return [[Fraction(rng.randint(-span, span), rng.randint(1, 3))
             for _ in range(ncols)] for _ in range(nrows)]


def test_rref_fixture():
    rows, pivots = rref([[Fraction(0), Fraction(2), Fraction(4)],
                         [Fraction(1), Fraction(1), Fraction(1)]])
    assert pivots == [0, 1]
    assert rows == [[Fraction(1), Fraction(0), Fraction(-1)],
                    [Fraction(0), Fraction(1), Fraction(2)]]


def test_rank_matches_bareiss():
    rng = random.Random(7)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == bareiss_rank(m)


def test_rank_degenerate_shapes():
    assert rank([]) == 0
    assert rank([[Fraction(0), Fraction(0)]]) == 0


def test_kernel_vectors_annihilate():
    rng = random.Random(8)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        m = _random_matrix(rng, nrows, ncols)
        basis = kernel_basis(m, ncols)
        assert len(basis) == ncols - rank(m)
        for v in basis:
            assert all(sum(row[j] * v[j] for j in range(ncols)) == 0 for row in m)


def test_inverse():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        inv = inverse(m)
        if bareiss_rank(m) < n:
            assert inv is None
            continue
        eye = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        assert eye == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_solve():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    x = solve(a, [Fraction(5), Fraction(6)])
    assert [sum(a[i][j] * x[j] for j in range(2)) for i in range(2)] == [5, 6]
    # inconsistent system
    assert solve([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                 [Fraction(0), Fraction(1)]) is None
    # underdetermined: any particular solution is fine
    b = [[Fraction(1), Fraction(1), Fraction(0)]]
    y = solve(b, [Fraction(2)])
    assert sum(b[0][j] * y[j] for j in range(3)) == 2


def test_mat_vec():
    m = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    assert mat_vec(m, [Fraction(3), Fraction(4)]) == [Fraction(11), Fraction(4)]


def _is_rref(rows, pivots, ncols):
    """Leading ones at strictly increasing pivots, zeros above and below."""
    for i, (row, pc) in enumerate(zip(rows, pivots)):
        if any(row.get(j, 0) for j in range(pc)) or row.get(pc) != 1:
            return False
        if any(other.get(pc, 0) for k, other in enumerate(rows) if k != i):
            return False
    return pivots == sorted(set(pivots)) and all(0 <= c < ncols for c in pivots)


def test_rowspan_canonical_rows_against_bareiss():
    """The span's RREF checked against the independent Bareiss rank: the
    dimension is the rank of the input, the rows are in RREF, and stacking
    them under the input adds nothing to the rank."""
    rng = random.Random(10)
    for _ in range(25):
        ncols = rng.randint(2, 6)
        dense_rows = _random_matrix(rng, rng.randint(1, 6), ncols)
        span = RowSpan(ncols)
        for row in dense_rows:
            span.insert({j: v for j, v in enumerate(row) if v})
        canon = span.canonical_rows()
        assert span.dimension == len(canon) == bareiss_rank(dense_rows)
        assert span.pivot_columns() == [min(r) for r in canon]
        assert _is_rref(canon, span.pivot_columns(), ncols)
        stacked = dense_rows + [[r.get(j, 0) for j in range(ncols)] for r in canon]
        assert bareiss_rank(stacked) == len(canon)
        # stored rows have their content divided out and a positive lead
        for row in span.basis_rows():
            assert gcd(*row.values()) == 1 and row[min(row)] > 0


def test_integer_rows_enter_like_rational_rows():
    rng = random.Random(71)
    assert _to_sparse_int([0, -4, 6]) == {1: 2, 2: -3}
    assert _to_sparse_int({3: 5, 1: 0}) == {3: 1}
    assert _to_sparse_int([0, 0]) == {}
    for _ in range(20):
        ints = [rng.randint(-3, 3) * rng.choice((1, 6)) for _ in range(6)]
        expected = _to_sparse_int([Fraction(v, 5) for v in ints])
        assert _to_sparse_int(ints) == expected
        assert _to_sparse_int(dict(enumerate(ints))) == expected


def test_rowspan_membership():
    span = RowSpan(3)
    assert span.insert({0: 1, 1: 2}) is not None  # independent rows return a residual
    span.insert({1: 1})
    assert span.contains({0: 3, 1: 1})
    assert not span.contains({2: 1})
    # inserting a dependent row leaves the dimension alone and returns None
    dim = span.dimension
    assert span.insert({0: 2, 1: 5}) is None
    assert span.dimension == dim
    residual = span.insert({0: 1, 2: 7})
    assert residual is not None
    assert span.dimension == dim + 1


def test_rowspan_basis_rows_span_inserted_rows():
    span = RowSpan(4)
    rows = [{0: 2, 2: 4}, {1: 3}, {0: 1, 1: 1, 2: 2}]
    for r in rows:
        span.insert(dict(r))
    for r in rows:
        assert span.contains(dict(r))
    assert len(span.basis_rows()) == span.dimension == 2


def test_full_rowspan_takes_no_more_rows():
    span = RowSpan(3)
    for row in ({0: 2, 1: 1}, {1: 3, 2: -1}, {2: 5}):
        assert span.insert(row) is not None
    before = span.basis_rows()
    assert span.insert({0: 1, 1: 7, 2: -2}) is None
    assert span.insert({1: Fraction(1, 3)}) is None
    assert span.basis_rows() == before and span.dimension == 3


def test_tall_matrices_match_bareiss():
    """rank, rref and kernel_basis of tall matrices: a full-rank prefix then
    dependent rows (where elimination stops early), and rank-deficient
    input (where it cannot)."""
    rng = random.Random(11)
    for _ in range(30):
        ncols = rng.randint(1, 5)
        prefix = _random_matrix(rng, ncols, ncols)
        if bareiss_rank(prefix) < ncols:
            continue
        extra = [[sum(rng.randint(-2, 2) * row[j] for row in prefix)
                  for j in range(ncols)] for _ in range(rng.randint(1, 6))]
        basis = _random_matrix(rng, rng.randint(0, ncols - 1), ncols)
        deficient = [[sum(rng.randint(-2, 2) * row[j] for row in basis)
                      for j in range(ncols)]
                     for _ in range(ncols + rng.randint(1, 4))]
        for m, r in ((prefix + extra, ncols), (deficient, bareiss_rank(deficient))):
            assert rank(m) == bareiss_rank(m) == r
            rows, pivots = rref(m)
            assert len(rows) == len(pivots) == r
            assert bareiss_rank(m + rows) == r
            kernel = kernel_basis(m, ncols)
            assert len(kernel) == ncols - r
            for v in kernel:
                assert all(sum(row[j] * v[j] for j in range(ncols)) == 0 for row in m)
        # the RREF is unique, so stopping after the prefix changes nothing
        assert rref(prefix + extra) == rref(prefix)
