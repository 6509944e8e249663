"""Exact linear algebra over the rationals, on one elimination engine.

RowSpan is the only place where rows are eliminated.  It keeps a sparse,
fraction-free integer basis: rows enter with their denominators cleared,
every elimination step combines two rows with coprime multipliers, and each
row it produces is divided by its content, so entries stay as small as the
span allows.  canonical_rows() back-substitutes to the reduced row echelon
form (RREF), which is unique; rref, rank, kernel_basis, inverse and solve are
read off it.  A full span takes no more rows, so tall matrices stop early.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = list[Fraction]
SparseRow = dict[int, int]


def _span(rows) -> RowSpan:
    span = RowSpan(len(rows[0]) if rows else 0)
    for row in rows:
        span.insert(row)
    return span


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot column list)."""
    span = _span(rows)
    out = []
    for row in span.canonical_rows():
        dense = [Fraction(0)] * span.ncols
        for c, v in row.items():
            dense[c] = v
        out.append(dense)
    return out, span.pivot_columns()


def rank(rows: list[Row]) -> int:
    return _span(rows).dimension


def kernel_basis(rows: list[Row], ncols: int) -> list[Row]:
    """Canonical kernel basis from the RREF: one vector per free column."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def inverse(mat: list[Row]) -> list[Row] | None:
    """Matrix inverse, or None if singular."""
    n = len(mat)
    aug = [list(mat[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def mat_vec(mat: list[Row], vec: Row) -> Row:
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


def solve(rows: list[Row], rhs: Row) -> Row | None:
    """One solution of rows * x = rhs (free variables set to 0), or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent
    x = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[ncols]
    return x


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
    """Primitive multiple of a*row - b*pivot, with a and b coprime and
    chosen so that the entry at col cancels."""
    g = gcd(pivot[col], row[col])
    a, b = pivot[col] // g, row[col] // g
    out: SparseRow = {}
    for c in row.keys() | pivot.keys():
        v = a * row.get(c, 0) - b * pivot.get(c, 0)
        if v:
            out[c] = v
    return _primitive(out)


class RowSpan:
    """Row space of sparse integer vectors with incremental insertion.

    Rows are kept forward-eliminated and primitive: at most one stored row
    leads at any column.  canonical_rows() back-substitutes to the unique RREF.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._pivot_rows: dict[int, SparseRow] = {}  # leading column -> row

    @property
    def dimension(self) -> int:
        return len(self._pivot_rows)

    def _eliminate(self, row: SparseRow) -> SparseRow:
        while row:
            lead = min(row)
            pivot = self._pivot_rows.get(lead)
            if pivot is None:
                return row
            row = _cancel(row, pivot, lead)
        return row

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

    def canonical_rows(self) -> list[dict[int, Fraction]]:
        """The unique RREF of the span, rows ordered by pivot column."""
        order = sorted(self._pivot_rows)
        reduced: dict[int, SparseRow] = {}
        for lead in reversed(order):
            row = self._pivot_rows[lead]
            # cancelling one later pivot column leaves the others untouched
            for col in sorted(c for c in row if c in reduced):
                row = _cancel(row, reduced[col], col)
            reduced[lead] = row
        out = []
        for lead in order:
            row = reduced[lead]
            scale = Fraction(1, row[lead])
            out.append({c: v * scale for c, v in sorted(row.items())})
        return out

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivot_rows)

    def basis_rows(self) -> list[SparseRow]:
        """Current (forward-eliminated, primitive integer) basis rows."""
        return [self._pivot_rows[c] for c in sorted(self._pivot_rows)]
