"""Exact linear algebra over the rationals, on one elimination engine.

RowSpan is the only place where rows are eliminated.  It keeps a sparse,
fraction-free integer basis: rows enter with their denominators cleared,
every elimination step combines two rows with coprime multipliers, and each
row it produces is divided by its content, so entries stay as small as the
span allows.  A row being reduced is divided by its content when it stops
and every CONTENT_EVERY steps on the way, not after each step: which entries
a step cancels does not depend on the content, and the primitive multiple
with a positive lead is unique, so every residual and stored row is the
same.  A full span takes no more rows, so tall matrices stop early.

Every answer is in integers.  rref returns canonical_rows(), the primitive
multiples of the unique reduced row echelon form (RREF) rows, kernel_basis
kernel_rows(), those of the canonical kernel vectors, and inverse and solve
read one answer off them as integers over one denominator.  The RREF is
unique, and so is a row's primitive multiple with a positive lead, so two
spans are equal iff their canonical rows are.

ModularSpan is the one elimination engine modulo a prime, on integer rows
as they come.  It never stands in for RowSpan: it bounds ranks from below,
as a matrix with entries in Z localized at p has rank modulo p at most its
rank over Q, so a rank modulo p that reaches a known upper bound proves the
rank over Q.  independent() is the one modular-rank helper, modulo PRIME:
it proves the Hilbert function and the missing generators in apolar, and
it proves a poly.LinearChange invertible, n rows independent modulo PRIME
being independent over Q.  Its kernel_rows() serve the lattice minimization
of the pinch normalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

SparseRow = dict[int, int]
CONTENT_EVERY = 8  # cancellations between content reductions of one row
PRIME = 2**31 - 1  # the modulus of the ranks that prove independence over Q


def _span(rows, ncols: int | None = None) -> RowSpan:
    span = RowSpan((len(rows[0]) if rows else 0) if ncols is None else ncols)
    for row in rows:
        span.insert(row)
    return span


def rref(rows: list[list]) -> tuple[list[SparseRow], list[int]]:
    """The RREF as (RowSpan.canonical_rows(), pivot columns): row i is the
    unique RREF row times its entry at pivot i, primitive and positive."""
    span = _span(rows)
    return span.canonical_rows(), span.pivot_columns()


def rank(rows: list[list]) -> int:
    return _span(rows).dimension


def kernel_basis(rows: list[list], ncols: int) -> list[SparseRow]:
    """RowSpan.kernel_rows() of the rows: the primitive multiples of the
    canonical kernel basis, one vector per free column."""
    return _span(rows, ncols).kernel_rows()


def inverse(mat: list[list]) -> tuple[list[list[int]], int] | None:
    """The inverse as integer rows over their least denominator D, or None if
    singular: row i of the reduced [mat | 1] is a_i*(e_i | row i), D = lcm a_i."""
    n = len(mat)
    span = _span([list(mat[i]) + [int(i == j) for j in range(n)] for i in range(n)])
    if span.pivot_columns() != list(range(n)):
        return None
    reduced = span.canonical_rows()
    den = lcm(*(row[i] for i, row in enumerate(reduced)))
    return [[row.get(n + j, 0) * (den // row[i]) for j in range(n)]
            for i, row in enumerate(reduced)], den


def cleared_rows(rows) -> tuple[list[list[int]], int]:
    """Integer rows and their least common denominator D: rows[i][j] = out[i][j] / D."""
    den = lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in rows], den


def gram(g: list[list[int]], vectors: list[list[int]]) -> list[list[int]]:
    """The Gram matrix [u^T g v] of integer vectors under an integer matrix
    g; a rational block goes in as its numerator over a kept denominator."""
    images = [[sum(map(mul, row, v)) for row in g] for v in vectors]
    return [[sum(map(mul, u, gv)) for gv in images] for u in vectors]


def solve(rows: list[list], rhs: list) -> tuple[list[int], int] | None:
    """One solution of rows * x = rhs as integers X over D > 0, x = X/D,
    with the free variables 0; None if there is none.  Row i of the reduced
    [rows | rhs] is a_i times (RREF row | x at pivot i), D = lcm a_i."""
    if not rows:
        return None
    ncols = len(rows[0])
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None  # inconsistent
    den = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    x = [0] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row.get(ncols, 0) * (den // row[pc])
    return x, den


def _primitive(row: SparseRow) -> SparseRow:
    """Divide out the content; the leading entry becomes positive."""
    if not row:
        return row
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return {c: v // g for c, v in row.items()} if g != 1 else row


def _to_sparse_int(row) -> SparseRow:
    """Primitive integer multiple of a dense or sparse rational row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    nonzero = {c: v for c, v in items if v}
    if all(type(v) is int for v in nonzero.values()):
        return _primitive(nonzero)
    fracs = {c: Fraction(v) for c, v in nonzero.items()}
    scale = lcm(*(v.denominator for v in fracs.values()))
    return _primitive({c: int(v * scale) for c, v in fracs.items()})


def _cancel(row: SparseRow, pivot: SparseRow, col: int) -> SparseRow:
    """a*row - b*pivot, with a and b coprime and chosen so that the entry at
    col cancels; the caller divides out the content."""
    g = gcd(pivot[col], row[col])
    a, b = pivot[col] // g, row[col] // g
    out: SparseRow = {}
    for c in row.keys() | pivot.keys():
        v = a * row.get(c, 0) - b * pivot.get(c, 0)
        if v:
            out[c] = v
    return out


class RowSpan:
    """Row space of sparse integer vectors with incremental insertion.

    Rows are kept forward-eliminated and primitive: at most one stored row
    leads at any column.  canonical_rows() back-substitutes to the RREF.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivot_rows: dict[int, SparseRow] = {}  # leading column -> row

    @property
    def dimension(self) -> int:
        return len(self._pivot_rows)

    def _eliminate(self, row: SparseRow) -> SparseRow:
        """The residual of a primitive row, divided by its content every
        CONTENT_EVERY cancellations and after the last one."""
        steps = 0
        while row and (lead := min(row)) in self._pivot_rows:
            row = _cancel(row, self._pivot_rows[lead], lead)
            steps += 1
            if steps % CONTENT_EVERY == 0:
                row = _primitive(row)
        return row if steps % CONTENT_EVERY == 0 else _primitive(row)

    def reduce(self, row) -> SparseRow:
        """Residual of a row after elimination (primitive integer form)."""
        return self._eliminate(_to_sparse_int(row))

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def insert(self, row) -> SparseRow | None:
        """Insert a row; returns the primitive residual if it enlarged the
        span, else None (at once, when the span is already full)."""
        if len(self._pivot_rows) == self.ncols:
            return None
        residual = self.reduce(row)
        if not residual:
            return None
        self._pivot_rows[min(residual)] = residual
        return residual

    def canonical_rows(self) -> list[SparseRow]:
        """The primitive integer multiples, with positive leads, of the
        unique RREF rows of the span, ordered by pivot column."""
        order = sorted(self._pivot_rows)
        reduced: dict[int, SparseRow] = {}
        for lead in reversed(order):
            row = self._pivot_rows[lead]
            # cancelling one later pivot column leaves the others untouched
            for col in sorted(c for c in row if c in reduced):
                row = _primitive(_cancel(row, reduced[col], col))
            reduced[lead] = row
        return [reduced[lead] for lead in order]

    def kernel_rows(self) -> list[SparseRow]:
        """The primitive integer multiple of the canonical kernel vector of
        each column without a pivot, in order.  The canonical vector has 1
        at its free column, 0 at the others and minus the RREF entry of that
        column at each pivot column."""
        reduced = [(min(row), row) for row in self.canonical_rows()]
        out = []
        for free in range(self.ncols):
            if free in self._pivot_rows:
                continue
            used = [(lead, row[lead], row[free]) for lead, row in reduced if free in row]
            scale = lcm(*(a for _, a, _ in used))
            vec = {lead: -b * (scale // a) for lead, a, b in used}
            vec[free] = scale
            out.append(_primitive(dict(sorted(vec.items()))))
        return out

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivot_rows)

    def basis_rows(self) -> list[SparseRow]:
        """Current (forward-eliminated, primitive integer) basis rows."""
        return [self._pivot_rows[c] for c in sorted(self._pivot_rows)]


class ModularSpan:
    """Row space over GF(prime) of sparse integer rows with columns
    0..ncols-1.  A row is reduced in a dense accumulator, taken modulo the
    prime only where a leading entry is read; stored rows lead with 1 and
    keep only their later nonzero entries."""

    def __init__(self, ncols: int, prime: int):
        self.ncols = ncols
        self.prime = prime
        self._pivot_rows: dict[int, list[tuple[int, int]]] = {}  # lead -> tail

    @property
    def dimension(self) -> int:
        return len(self._pivot_rows)

    def insert(self, row: dict[int, int]) -> bool:
        """Insert a row; True if it enlarged the span."""
        p, ncols = self.prime, self.ncols
        acc = [0] * ncols
        for c, v in row.items():
            acc[c] = v
        for c in range(min(row, default=ncols), ncols):
            x = acc[c] % p
            if not x:
                continue
            tail = self._pivot_rows.get(c)
            if tail is None:
                inv = pow(x, -1, p)
                self._pivot_rows[c] = [(k, v * inv % p) for k in range(c + 1, ncols)
                                       if (v := acc[k] % p)]
                return True
            for k, v in tail:
                acc[k] -= x * v
        return False

    def kernel_rows(self) -> tuple[list[list[int]], list[int]]:
        """The canonical kernel vectors modulo the prime, entries in
        [0, prime), and their free columns: the vector of a column without
        a pivot is 1 there, 0 at the other free columns and minus the entry
        of that column in the reduced echelon row of each pivot."""
        p, ncols = self.prime, self.ncols
        reduced: dict[int, list[int]] = {}  # lead -> dense reduced echelon row
        for lead in sorted(self._pivot_rows, reverse=True):
            row = [int(c == lead) for c in range(ncols)]
            for k, v in self._pivot_rows[lead]:
                row[k] = v
            # each row of reduced is 0 at the other pivot columns
            for col, pivot in reduced.items():
                if f := row[col]:
                    row = [(a - f * b) % p for a, b in zip(row, pivot)]
            reduced[lead] = row
        free = [c for c in range(ncols) if c not in reduced]
        return [[-reduced[c][f] % p if c in reduced else int(c == f) for c in range(ncols)]
                for f in free], free


def independent(vectors: list[dict[int, int]] | None, ncols: int,
                h: int) -> list[dict[int, int]] | None:
    """The first h integer vectors that are independent modulo PRIME, hence
    over Q; None when fewer than h are (or vectors is None), as soon as the
    vectors not yet read cannot make up the difference."""
    span, chosen, vectors = ModularSpan(ncols, PRIME), [], vectors or []
    for t, vector in enumerate(vectors):
        if len(chosen) == h or len(chosen) + len(vectors) - t < h:
            break
        if span.insert(vector):
            chosen.append(vector)
    return chosen if len(chosen) == h else None
