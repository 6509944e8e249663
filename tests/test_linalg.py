import random
from fractions import Fraction
from math import gcd

from apolarity import linalg
from apolarity.linalg import (ModularSpan, RowSpan, _to_sparse_int, gram, inverse,
                              kernel_basis, rank, rref, solve)
from oracles import (bareiss_rank, gram_by_fractions, kernel, kernel_mod,
                     primitive_multiple, rank_mod_prime)


def _random_matrix(rng, nrows, ncols, span=4):
    return [[Fraction(rng.randint(-span, span), rng.randint(1, 3))
             for _ in range(ncols)] for _ in range(nrows)]


def _dense(row, ncols):
    return [row.get(j, 0) for j in range(ncols)]


def test_rref_fixture():
    """The RREF rows [1, 0, -1] and [0, 1, 2], and [1, 0, 1/2], [0, 1, -3/4]
    come out as their primitive integer multiples."""
    rows, pivots = rref([[Fraction(0), Fraction(2), Fraction(4)],
                         [Fraction(1), Fraction(1), Fraction(1)]])
    assert pivots == [0, 1]
    assert rows == [{0: 1, 2: -1}, {1: 1, 2: 2}]
    rows, pivots = rref([[2, 0, 1], [0, 4, -3]])
    assert pivots == [0, 1]
    assert rows == [{0: 2, 2: 1}, {1: 4, 2: -3}]


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
            assert all(sum(row[j] * v.get(j, 0) for j in range(ncols)) == 0 for row in m)
        # the canonical basis, with 1 at its free column, is unique, and so
        # is its primitive integer multiple
        assert basis == [primitive_multiple(v) for v in kernel(m, ncols)]


def test_inverse():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        inv = inverse(m)
        if bareiss_rank(m) < n:
            assert inv is None
            continue
        rows, den = inv
        inv = [[Fraction(v, den) for v in row] for row in rows]
        eye = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
        assert eye == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_solve():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    xs, den = solve(a, [Fraction(5), Fraction(6)])
    x = [Fraction(v, den) for v in xs]
    assert den > 0 and all(type(v) is int for v in xs)
    assert [sum(a[i][j] * x[j] for j in range(2)) for i in range(2)] == [5, 6]
    # inconsistent system
    assert solve([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                 [Fraction(0), Fraction(1)]) is None
    # underdetermined: any particular solution is fine
    b = [[Fraction(1), Fraction(1), Fraction(0)]]
    ys, den = solve(b, [Fraction(2)])
    assert sum(b[0][j] * Fraction(ys[j], den) for j in range(3)) == 2


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
        # each row is its RREF row times its lead
        monic = [{j: Fraction(v, r[min(r)]) for j, v in r.items()} for r in canon]
        assert _is_rref(monic, span.pivot_columns(), ncols)
        stacked = dense_rows + [_dense(r, ncols) for r in canon]
        assert bareiss_rank(stacked) == len(canon)
        # stored and canonical rows have their content divided out and a
        # positive lead
        for row in span.basis_rows() + canon:
            assert gcd(*row.values()) == 1 and row[min(row)] > 0


def test_content_divided_out_once_per_row_changes_no_row(monkeypatch):
    """A cancellation's zero pattern does not depend on the row's content,
    and the primitive multiple with a positive lead is unique: dividing out
    the content once per reduced row (and every CONTENT_EVERY steps) gives
    the residuals, stored rows, RREF and kernel of dividing it out after
    every cancellation.  The rows are long enough to pass CONTENT_EVERY."""
    def run(every, matrices):
        monkeypatch.setattr(linalg, "CONTENT_EVERY", every)
        out = []
        for ncols, rows in matrices:
            span = RowSpan(ncols)
            residuals = [span.insert(row) for row in rows]
            out.append((residuals, span.basis_rows(), span.canonical_rows(),
                        span.kernel_rows()))
        return out

    rng = random.Random(17)
    matrices = []
    for _ in range(12):
        ncols = rng.randint(12, 24)
        rows = _random_matrix(rng, rng.randint(ncols - 4, ncols + 2), ncols, span=9)
        matrices.append((ncols, rows + [[a + 2 * b for a, b in zip(rows[0], rows[1])]]))
    once = run(linalg.CONTENT_EVERY, matrices)
    assert once == run(1, matrices)
    for residuals, stored, reduced, kernel_rows in once:
        assert sum(r is not None for r in residuals) == len(stored) < len(residuals)
        for row in stored + reduced + kernel_rows:
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
            assert bareiss_rank(m + [_dense(row, ncols) for row in rows]) == r
            kernel = kernel_basis(m, ncols)
            assert len(kernel) == ncols - r
            for v in kernel:
                assert all(sum(row[j] * v.get(j, 0) for j in range(ncols)) == 0 for row in m)
        # the RREF is unique, so stopping after the prefix changes nothing
        assert rref(prefix + extra) == rref(prefix)


def test_integer_input_builds_no_fraction(monkeypatch):
    """On integer rows rref, kernel_basis, solve, inverse, canonical_rows and
    kernel_rows run on integers alone: with linalg.Fraction counting its
    calls, none is made.  Every row they return is primitive with a positive
    lead, and the single answers of solve and inverse are integers over a
    positive denominator that satisfy their equations."""
    rng = random.Random(19)
    cases = []
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        n = rng.randint(1, 4)
        square = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        cases.append((m, [rng.randint(-9, 9) for _ in m], square))
    calls = []
    monkeypatch.setattr(linalg, "Fraction", lambda *args: calls.append(args) or Fraction(*args))
    for m, rhs, square in cases:
        ncols = len(m[0])
        span = RowSpan(ncols)
        for row in m:
            span.insert(row)
        rows, _ = rref(m)
        for row in rows + kernel_basis(m, ncols) + span.canonical_rows() + span.kernel_rows():
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1 and row[min(row)] > 0
        sol = solve(m, rhs)
        if sol is not None:
            xs, den = sol
            assert den > 0 and all(type(v) is int for v in xs)
            assert [sum(a * x for a, x in zip(row, xs)) for row in m] == [b * den for b in rhs]
        inv = inverse(square)
        if inv is not None:
            inv_rows, den = inv
            n = len(square)
            assert den > 0 and all(type(v) is int for row in inv_rows for v in row)
            assert [[sum(square[i][k] * inv_rows[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)] == [[den * int(i == j) for j in range(n)] for i in range(n)]
    assert calls == []


def test_modular_span_rank_is_the_rank_mod_p_and_bounds_the_rank_over_q():
    """ModularSpan's dimension is the rank modulo the prime (a dense oracle),
    never above the rank over Q, and it drops where the prime divides
    minors.  Rows may hold any integers; only residues count."""
    rng = random.Random(12)
    for p in (2, 3, 7, 2**31 - 1):
        for _ in range(30):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            m = [[rng.choice((0, 0, 1, -1, p, 2 * p + 1, rng.randint(-50, 50)))
                  for _ in range(ncols)] for _ in range(nrows)]
            span = ModularSpan(ncols, p)
            for row in m:
                span.insert({c: v for c, v in enumerate(row) if v})
            assert span.dimension == rank_mod_prime(m, p) <= bareiss_rank(m)
    span = ModularSpan(2, 5)
    assert not span.insert({})
    assert span.insert({0: 1})
    assert not span.insert({0: 3, 1: 10})  # 3 times the first row, mod 5
    assert span.insert({0: 2, 1: 4}) and span.dimension == 2


def test_gram_matches_the_fraction_loop():
    """gram on integer input, with entries up to 10^30, zero and unit
    vectors, and a pairing that cancels to zero (the last check), gives the
    Fraction loop's entries, as ints."""
    rng = random.Random(41)
    big = 10 ** 30 + 3

    def entry():
        return rng.randint(-5, 5) * rng.choice([1, 1, big])

    for _ in range(36):
        k, m = rng.randint(1, 6), rng.randint(0, 5)
        g = [[entry() for _ in range(k)] for _ in range(k)]
        g = [[g[min(i, j)][max(i, j)] for j in range(k)] for i in range(k)]
        vectors = [[entry() for _ in range(k)] for _ in range(m)]
        if vectors:
            vectors.append([0] * k)
            vectors.append([int(i == 0) for i in range(k)])
        out = gram(g, vectors)
        assert out == gram_by_fractions(g, vectors)
        assert all(type(v) is int for row in out for v in row)
    assert gram([[1, 0], [0, -1]], [[big, big], [1, 0]]) == [[0, big], [big, 1]]


def test_modular_kernel_rows_match_gauss_jordan():
    """ModularSpan.kernel_rows against a dense Gauss-Jordan elimination mod
    p (oracles.kernel_mod): the same canonical kernel vectors, entries in
    [0, p), and free columns, for p in 2, 3, 5, 7, 31 and square matrices
    of sizes 1..7 that are zero, of full rank or rank-deficient, with
    entries outside [0, p)."""
    rng = random.Random(2131)
    kinds = {"zero": 0, "full": 0, "deficient": 0}
    for p in (2, 3, 5, 7, 31):
        for k in range(1, 8):
            for trial in range(12):
                if trial == 0:
                    g = [[rng.choice((0, p, -p)) for _ in range(k)] for _ in range(k)]
                else:
                    g = [[rng.randint(-3 * p, 3 * p) for _ in range(k)] for _ in range(k)]
                if trial % 3 == 2 and k > 1:
                    # a row that is a combination of two others, mod p
                    i, j, t = rng.sample(range(k), 2) + [rng.randrange(k)]
                    g[t] = [a + 2 * b + p * rng.randint(-2, 2) for a, b in zip(g[i], g[j])]
                span = ModularSpan(k, p)
                for row in g:
                    span.insert(dict(enumerate(row)))
                vectors, free = span.kernel_rows()
                assert (vectors, free) == kernel_mod(g, p)
                assert all(sum(a * x for a, x in zip(row, v)) % p == 0
                           for row in g for v in vectors)
                rank = rank_mod_prime(g, p)
                kinds["zero" if rank == 0 else "full" if rank == k else "deficient"] += 1
    assert min(kinds.values()) >= 20, kinds
